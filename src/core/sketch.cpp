#include "core/sketch.hpp"

#include <algorithm>
#include <array>
#include <bit>

#include "core/minimizer_lanes.hpp"
#include "core/sketch_lanes.hpp"

namespace jem::core {

namespace {

/// argmin by (hash value, k-mer code) — the k-mer tie-break makes the result
/// independent of scan order.
struct HashedKmer {
  std::uint64_t hash;
  KmerCode kmer;

  [[nodiscard]] bool less_than(const HashedKmer& other) const noexcept {
    return hash < other.hash || (hash == other.hash && kmer < other.kmer);
  }
};

/// The one-block walk of one trial: the suffix minimum of `hash` by (hash,
/// k-mer) over kmers[begin, end), last to first. Calls step(i, h, record)
/// at each minimizer i with its hash, `record` true where the minimum
/// strictly improves (the walk's records hold distinct k-mers).
template <class Step>
void suffix_minima(const LcgHash& hash, const KmerCode* kmers,
                   std::size_t begin, std::size_t end, Step&& step) {
  std::uint64_t best_hash = ~std::uint64_t{0};
  KmerCode best_kmer = ~KmerCode{0};
  for (std::size_t i = end; i-- > begin;) {
    const KmerCode kmer = kmers[i];
    const std::uint64_t h = hash(kmer);
    const bool better = h < best_hash || (h == best_hash && kmer < best_kmer);
    best_hash = better ? h : best_hash;
    best_kmer = better ? kmer : best_kmer;
    step(i, h, better);
  }
}

/// Sorts `rows` by list[row], stably: one counting pass per byte of the
/// k-mers, least significant first, skipping the bytes they all share.
/// `spare` is the passes' second buffer.
void sort_by_kmer(const KmerCode* list, std::vector<std::uint32_t>& rows,
                  std::vector<std::uint32_t>& spare) {
  KmerCode any = 0;
  KmerCode all = ~KmerCode{0};
  for (const std::uint32_t row : rows) {
    any |= list[row];
    all &= list[row];
  }
  spare.resize(rows.size());
  for (unsigned shift = 0; shift < 64; shift += 8) {
    if (((any ^ all) >> shift & 0xff) == 0) continue;
    std::array<std::uint32_t, 257> start{};
    for (const std::uint32_t row : rows) {
      ++start[(list[row] >> shift & 0xff) + 1];
    }
    for (std::size_t byte = 0; byte < 256; ++byte) {
      start[byte + 1] += start[byte];
    }
    for (const std::uint32_t row : rows) {
      spare[start[list[row] >> shift & 0xff]++] = row;
    }
    rows.swap(spare);
  }
}

/// Keeps the rows of list[0, count) whose trial set in `sets` (`words`
/// words each) is marked: their k-mers to `kmers` and their sets to the
/// front of `sets`, in list order. With `merge`, rows that repeat a k-mer
/// are first merged into the first of them: one sort of the marked rows by
/// k-mer (scratch.order), OR-ing each repeat's set into the first and
/// clearing its own. `list` may be kmers.data().
void keep_marked(const KmerCode* list, std::size_t count, std::size_t words,
                 bool merge, SketchScratch& scratch,
                 std::vector<KmerCode>& kmers,
                 std::vector<std::uint64_t>& sets) {
  const auto marked = [&](std::size_t i) {
    const std::uint64_t* const set = sets.data() + i * words;
    return std::any_of(set, set + words,
                       [](std::uint64_t w) { return w != 0; });
  };
  if (merge) {
    std::vector<std::uint32_t>& order = scratch.order;
    order.clear();
    for (std::size_t i = 0; i < count; ++i) {
      if (marked(i)) order.push_back(static_cast<std::uint32_t>(i));
    }
    sort_by_kmer(list, order, scratch.order_spare);
    std::size_t first = 0;
    for (std::size_t j = 1; j < order.size(); ++j) {
      if (list[order[j]] != list[order[first]]) {
        first = j;
        continue;
      }
      std::uint64_t* const into = sets.data() + order[first] * words;
      std::uint64_t* const from = sets.data() + order[j] * words;
      for (std::size_t w = 0; w < words; ++w) {
        into[w] |= from[w];
        from[w] = 0;
      }
    }
  }
  kmers.resize(count);
  std::size_t kept = 0;
  for (std::size_t i = 0; i < count; ++i) {
    if (!marked(i)) continue;
    for (std::size_t w = 0; w < words; ++w) {
      sets[kept * words + w] = sets[i * words + w];
    }
    kmers[kept++] = list[i];
  }
  kmers.resize(kept);
  sets.resize(kept * words);
}

/// The kernel of this process: the widest one the CPU runs.
int detect_lanes() noexcept {
  for (const int lanes : {8, 4}) {
    if (detail::sketch_lanes_supported(lanes)) return lanes;
  }
  return 1;
}

/// The lane kernels' modulo is exact for k-mers of up to 2·kMaxLaneK bits.
constexpr int kLaneKmerBits = 2 * detail::kMaxLaneK;

/// The sorted view of a sketch's rows.
Sketch sorted_view(std::span<const KmerCode> kmers,
                   std::span<const std::uint64_t> sets, int trials) {
  Sketch sketch;
  sketch.per_trial.resize(static_cast<std::size_t>(trials));
  for_each_entry(kmers, sets,
                 trial_set_words(static_cast<std::size_t>(trials)),
                 [&](std::size_t t, KmerCode kmer) {
                   sketch.per_trial[t].push_back(kmer);
                 });
  for (auto& trial : sketch.per_trial) std::sort(trial.begin(), trial.end());
  return sketch;
}

}  // namespace

int sketch_lanes() noexcept {
  static const int lanes = detect_lanes();
  return lanes;
}

void sketch_by_jem_sets(std::span<const Minimizer> minimizers,
                        std::uint32_t interval_length,
                        const HashFamily& hashes, SketchScratch& scratch,
                        std::vector<KmerCode>& kmers,
                        std::vector<std::uint64_t>& sets) {
  detail::sketch_by_jem_sets_with(sketch_lanes(), minimizers,
                                  interval_length, hashes, scratch, kmers,
                                  sets);
}

void detail::sketch_by_jem_sets_with(int lanes,
                                     std::span<const Minimizer> minimizers,
                                     std::uint32_t interval_length,
                                     const HashFamily& hashes,
                                     SketchScratch& scratch,
                                     std::vector<KmerCode>& kmers,
                                     std::vector<std::uint64_t>& sets) {
  const auto trials = static_cast<std::size_t>(hashes.trials());
  const std::size_t words = trial_set_words(trials);
  const std::size_t count = minimizers.size();
  if (count == 0) {
    kmers.clear();
    sets.clear();
    return;
  }

  std::vector<KmerCode>& list = scratch.kmers;
  list.resize(count);
  KmerCode bits = 0;  // every k-mer or-ed: its width decides the kernel
  for (std::size_t i = 0; i < count; ++i) {
    list[i] = minimizers[i].kmer;
    bits |= list[i];
  }

  // Blocks b_0 = 0, b_{k+1} = r(b_k), where r(i) (ends[i]) is one past the
  // last minimizer with p_j <= p_i + ℓ. An interval starting in block k
  // ends by the end of block k+1, so its minimum is min(suffix minimum of
  // block k at i, prefix minimum of block k+1 at r(i) - 1). A list that
  // spans at most ℓ is one block and needs no ends.
  std::vector<std::uint32_t>& blocks = scratch.blocks;
  blocks.assign(1, 0);
  if (minimizers.back().position >
      std::uint64_t{minimizers.front().position} + interval_length) {
    std::vector<std::uint32_t>& ends = scratch.ends;
    ends.resize(count);
    std::size_t right = 0;
    for (std::size_t i = 0; i < count; ++i) {
      const std::uint64_t limit =
          std::uint64_t{minimizers[i].position} + interval_length;
      while (right < count && minimizers[right].position <= limit) ++right;
      ends[i] = static_cast<std::uint32_t>(right);
    }
    for (std::size_t b = ends[0]; b < count; b = ends[b]) {
      blocks.push_back(static_cast<std::uint32_t>(b));
    }
  }
  blocks.push_back(static_cast<std::uint32_t>(count));
  const std::size_t last = blocks.size() - 2;  // the last block's index

  sets.assign(count * words, 0);
  if (lanes > 1 && bits >> kLaneKmerBits == 0) {
    jem_set_lanes(lanes, count, hashes, scratch, sets.data());
  } else {
    // The scalar loop: one trial at a time.
    const std::vector<std::uint32_t>& ends = scratch.ends;
    std::vector<std::uint64_t>& hashed = scratch.hashed;
    std::vector<std::uint64_t>& prefix_hash = scratch.prefix_hash;
    std::vector<KmerCode>& prefix_kmer = scratch.prefix_kmer;
    std::vector<std::uint64_t>& prefix_set = scratch.prefix_set;
    hashed.resize(count);
    prefix_hash.resize(count + 1);
    prefix_kmer.resize(count + 1);
    prefix_set.resize(count + 1);
    // prefix_*[0] stands for an empty prefix (r(i) == b_{k+1}): it never
    // compares strictly below a real (hash, kmer), so it never wins.
    prefix_hash[0] = ~std::uint64_t{0};
    prefix_kmer[0] = ~KmerCode{0};
    prefix_set[0] = 0;

    for (std::size_t t = 0; t < trials; ++t) {
      const LcgHash hash = hashes[static_cast<int>(t)];
      std::uint64_t* const word = sets.data() + t / 64;
      const std::uint64_t bit = std::uint64_t{1} << (t % 64);

      // Last block: every interval runs to the end of the list, so the
      // interval minimum is the suffix minimum, and it comes from the
      // minimizer walked wherever it strictly improves.
      suffix_minima(hash, list.data(), blocks[last], count,
                    [&](std::size_t i, std::uint64_t h, bool record) {
                      hashed[i] = h;
                      word[i * words] |= record ? bit : 0;
                    });

      // Earlier blocks, last to first: prefix minima of block k+1 over its
      // stored hashes, then one backward pass over block k that hashes,
      // keeps the suffix minimum and merges. Each (hash, k-mer) minimum
      // carries the set offset of its minimizer, which gets the bit.
      for (std::size_t k = last; k-- > 0;) {
        const std::size_t begin = blocks[k];
        const std::size_t mid = blocks[k + 1];
        const std::size_t stop = blocks[k + 2];
        std::uint64_t ph = prefix_hash[0];
        KmerCode pk = prefix_kmer[0];
        std::uint64_t ps = prefix_set[0];
        for (std::size_t j = mid; j < stop; ++j) {
          const KmerCode kmer = list[j];
          const std::uint64_t h = hashed[j];
          const bool better = h < ph || (h == ph && kmer < pk);
          ph = better ? h : ph;
          pk = better ? kmer : pk;
          ps = better ? j * words : ps;
          prefix_hash[j - mid + 1] = ph;
          prefix_kmer[j - mid + 1] = pk;
          prefix_set[j - mid + 1] = ps;
        }

        std::uint64_t best_hash = prefix_hash[0];
        KmerCode best_kmer = prefix_kmer[0];
        std::uint64_t best_set = prefix_set[0];
        for (std::size_t i = mid; i-- > begin;) {
          const KmerCode kmer = list[i];
          const std::uint64_t h = hash(kmer);
          hashed[i] = h;
          const bool better =
              h < best_hash || (h == best_hash && kmer < best_kmer);
          best_hash = better ? h : best_hash;
          best_kmer = better ? kmer : best_kmer;
          best_set = better ? i * words : best_set;
          const std::size_t e = ends[i] - mid;
          const bool from_prefix =
              prefix_hash[e] < best_hash ||
              (prefix_hash[e] == best_hash && prefix_kmer[e] < best_kmer);
          word[from_prefix ? prefix_set[e] : best_set] |= bit;
        }
      }
    }
  }
  keep_marked(list.data(), count, words, last > 0, scratch, kmers, sets);
}

void classic_minhash_sets(std::string_view seq, int k,
                          const HashFamily& hashes, SketchScratch& scratch,
                          std::vector<KmerCode>& kmers,
                          std::vector<std::uint64_t>& sets) {
  detail::classic_minhash_sets_with(sketch_lanes(), seq, k, hashes, scratch,
                                    kmers, sets);
}

void detail::classic_minhash_sets_with(int lanes, std::string_view seq,
                                       int k, const HashFamily& hashes,
                                       SketchScratch& scratch,
                                       std::vector<KmerCode>& kmers,
                                       std::vector<std::uint64_t>& sets) {
  const auto trials = static_cast<std::size_t>(hashes.trials());
  const std::size_t words = trial_set_words(trials);
  const KmerCodec codec(k);

  // Rolling scan over all k-mers, restarting after ambiguous bases.
  std::vector<KmerCode>& all = scratch.kmers;
  all.clear();
  KmerCode fwd = 0;
  KmerCode rc = 0;
  int valid = 0;  // valid bases accumulated toward the next full k-mer
  for (std::size_t i = 0; i < seq.size(); ++i) {
    const std::uint8_t code = base_code(seq[i]);
    if (code == kInvalidBase) {
      valid = 0;
      continue;
    }
    fwd = codec.roll(fwd, code);
    rc = codec.roll_rc(rc, code);
    if (++valid < k) continue;
    valid = k;  // saturate so the counter cannot overflow on long runs
    all.push_back(fwd < rc ? fwd : rc);
  }
  if (all.empty()) {
    kmers.clear();
    sets.clear();
    return;
  }

  // One row per trial: its argmin k-mer, marked with the trial's bit.
  kmers.resize(trials);
  if (lanes > 1 && k <= kMaxLaneK) {
    minhash_lanes(lanes, all, hashes, kmers.data());
  } else {
    // The scalar loop: per trial, the argmin by (hash, k-mer).
    for (std::size_t t = 0; t < trials; ++t) {
      const LcgHash& hash = hashes[static_cast<int>(t)];
      HashedKmer best{hash(all[0]), all[0]};
      for (std::size_t i = 1; i < all.size(); ++i) {
        const HashedKmer candidate{hash(all[i]), all[i]};
        if (candidate.less_than(best)) best = candidate;
      }
      kmers[t] = best.kmer;
    }
  }
  sets.assign(trials * words, 0);
  for (std::size_t t = 0; t < trials; ++t) {
    sets[t * words + t / 64] = std::uint64_t{1} << (t % 64);
  }
  keep_marked(kmers.data(), trials, words, true, scratch, kmers, sets);
}

void rows_by_trial(std::span<const KmerCode> kmers,
                   std::span<const std::uint64_t> sets, int trials,
                   FlatSketch& out) {
  const auto t_count = static_cast<std::size_t>(trials);
  const std::size_t words = trial_set_words(t_count);
  // A counting sort by trial: counts, starts, then each entry at its
  // trial's next place, which leaves offsets[t] at trial t's end.
  out.offsets.assign(t_count + 1, 0);
  for_each_entry(kmers, sets, words,
                 [&](std::size_t t, KmerCode) { ++out.offsets[t + 1]; });
  for (std::size_t t = 0; t < t_count; ++t) {
    out.offsets[t + 1] += out.offsets[t];
  }
  out.kmers.resize(out.offsets[t_count]);
  for_each_entry(kmers, sets, words, [&](std::size_t t, KmerCode kmer) {
    out.kmers[out.offsets[t]++] = kmer;
  });
  for (std::size_t t = t_count; t > 0; --t) out.offsets[t] = out.offsets[t - 1];
  out.offsets[0] = 0;
}

Sketch sketch_by_jem(std::span<const Minimizer> minimizers,
                     std::uint32_t interval_length,
                     const HashFamily& hashes) {
  SketchScratch scratch;
  std::vector<KmerCode> kmers;
  std::vector<std::uint64_t> sets;
  sketch_by_jem_sets(minimizers, interval_length, hashes, scratch, kmers,
                     sets);
  return sorted_view(kmers, sets, hashes.trials());
}

Sketch sketch_by_jem(std::string_view seq, const SketchParams& params,
                     const HashFamily& hashes) {
  const std::vector<Minimizer> minimizers =
      minimizer_scan(seq, params.minimizer);
  return sketch_by_jem(minimizers, params.interval_length, hashes);
}

Sketch classic_minhash(std::string_view seq, int k, const HashFamily& hashes) {
  SketchScratch scratch;
  std::vector<KmerCode> kmers;
  std::vector<std::uint64_t> sets;
  classic_minhash_sets(seq, k, hashes, scratch, kmers, sets);
  return sorted_view(kmers, sets, hashes.trials());
}

}  // namespace jem::core
