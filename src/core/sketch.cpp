#include "core/sketch.hpp"

#include <algorithm>

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

/// The kernel of this process: the widest one the CPU runs.
int detect_lanes() noexcept {
  for (const int lanes : {8, 4}) {
    if (detail::sketch_lanes_supported(lanes)) return lanes;
  }
  return 1;
}

/// The lane kernels' modulo is exact for k-mers of up to 2·kMaxLaneK bits.
constexpr int kLaneKmerBits = 2 * detail::kMaxLaneK;

}  // namespace

int sketch_lanes() noexcept {
  static const int lanes = detect_lanes();
  return lanes;
}

void sketch_by_jem(std::span<const Minimizer> minimizers,
                   std::uint32_t interval_length, const HashFamily& hashes,
                   SketchScratch& scratch, FlatSketch& out) {
  detail::sketch_by_jem_with(sketch_lanes(), minimizers, interval_length,
                             hashes, scratch, out);
}

void detail::sketch_by_jem_with(int lanes,
                                std::span<const Minimizer> minimizers,
                                std::uint32_t interval_length,
                                const HashFamily& hashes,
                                SketchScratch& scratch, FlatSketch& out) {
  const auto trials = static_cast<std::size_t>(hashes.trials());
  const std::size_t count = minimizers.size();
  out.clear();
  out.offsets.assign(trials + 1, 0);
  if (count == 0) return;

  // Interval ends: ends[i] = r(i), one past the last minimizer with
  // p_j <= p_i + ℓ. r is nondecreasing and r(i) >= i + 1.
  std::vector<KmerCode>& kmers = scratch.kmers;
  std::vector<std::uint32_t>& ends = scratch.ends;
  kmers.resize(count);
  ends.resize(count);
  std::size_t right = 0;
  KmerCode bits = 0;  // every k-mer or-ed: its width decides the kernel
  for (std::size_t i = 0; i < count; ++i) {
    kmers[i] = minimizers[i].kmer;
    bits |= kmers[i];
    const std::uint64_t limit =
        static_cast<std::uint64_t>(minimizers[i].position) + interval_length;
    while (right < count && minimizers[right].position <= limit) ++right;
    ends[i] = static_cast<std::uint32_t>(right);
  }

  // Blocks b_0 = 0, b_{k+1} = r(b_k). An interval starting in block k ends
  // by the end of block k+1, so its minimum is min(suffix minimum of block
  // k at i, prefix minimum of block k+1 at r(i) - 1).
  std::vector<std::uint32_t>& blocks = scratch.blocks;
  blocks.clear();
  for (std::size_t b = 0; b < count; b = ends[b]) {
    blocks.push_back(static_cast<std::uint32_t>(b));
  }
  blocks.push_back(static_cast<std::uint32_t>(count));
  const std::size_t last = blocks.size() - 2;  // the last block's index
  if (lanes > 1 && bits >> kLaneKmerBits == 0) {
    jem_lanes(lanes, count, hashes, scratch, out);
    return;
  }

  // The scalar loop: one trial at a time.
  std::vector<std::uint64_t>& hashed = scratch.hashed;
  std::vector<std::uint64_t>& prefix_hash = scratch.prefix_hash;
  std::vector<KmerCode>& prefix_kmer = scratch.prefix_kmer;
  hashed.resize(count);
  prefix_hash.resize(count + 1);
  prefix_kmer.resize(count + 1);
  // prefix_*[0] stands for an empty prefix (r(i) == b_{k+1}): it never
  // compares strictly below a real (hash, kmer), so it never wins.
  prefix_hash[0] = ~std::uint64_t{0};
  prefix_kmer[0] = ~KmerCode{0};

  // Each trial writes its minima straight into its column of out.kmers
  // (sized T·|M| up front, trimmed at the end). A minimizer emits at most
  // one k-mer, so every write stays inside the trial's |M| share; a
  // candidate is written at column[emitted] and kept by advancing emitted.
  out.kmers.resize(trials * count);
  std::size_t written = 0;
  for (std::size_t t = 0; t < trials; ++t) {
    const LcgHash hash = hashes[static_cast<int>(t)];
    KmerCode* const column = out.kmers.data() + written;

    // Last block: every interval runs to the end of the list, so the
    // interval minimum is the suffix minimum. Walking backward it only
    // ever improves strictly, so its emits are already distinct. A query
    // list (span <= ℓ) is exactly this one block.
    std::size_t emitted = 0;
    suffix_minima(hash, kmers.data(), blocks[last], count,
                  [&](std::size_t i, std::uint64_t h, bool record) {
                    hashed[i] = h;
                    column[emitted] = kmers[i];
                    emitted += record;
                  });

    // Earlier blocks, last to first: prefix minima of block k+1 over its
    // stored hashes, then one backward pass over block k that hashes,
    // keeps the suffix minimum and merges. Consecutive repeats are dropped
    // here; the sort + unique below removes the rest.
    for (std::size_t k = last; k-- > 0;) {
      const std::size_t begin = blocks[k];
      const std::size_t mid = blocks[k + 1];
      const std::size_t stop = blocks[k + 2];
      std::uint64_t ph = prefix_hash[0];
      KmerCode pk = prefix_kmer[0];
      for (std::size_t j = mid; j < stop; ++j) {
        const KmerCode kmer = kmers[j];
        const std::uint64_t h = hashed[j];
        const bool better = h < ph || (h == ph && kmer < pk);
        ph = better ? h : ph;
        pk = better ? kmer : pk;
        prefix_hash[j - mid + 1] = ph;
        prefix_kmer[j - mid + 1] = pk;
      }

      KmerCode prev = column[emitted - 1];
      std::uint64_t best_hash = prefix_hash[0];
      KmerCode best_kmer = prefix_kmer[0];
      for (std::size_t i = mid; i-- > begin;) {
        const KmerCode kmer = kmers[i];
        const std::uint64_t h = hash(kmer);
        hashed[i] = h;
        const bool better =
            h < best_hash || (h == best_hash && kmer < best_kmer);
        best_hash = better ? h : best_hash;
        best_kmer = better ? kmer : best_kmer;
        const std::size_t e = ends[i] - mid;
        const bool from_prefix =
            prefix_hash[e] < best_hash ||
            (prefix_hash[e] == best_hash && prefix_kmer[e] < best_kmer);
        const KmerCode minimum = from_prefix ? prefix_kmer[e] : best_kmer;
        column[emitted] = minimum;
        emitted += minimum != prev;
        prev = minimum;
      }
    }

    if (last > 0) {
      std::sort(column, column + emitted);
      emitted = static_cast<std::size_t>(
          std::unique(column, column + emitted) - column);
    } else {
      // One block: the suffix minima are already distinct. Emitted in walk
      // order (last minimizer first); the lane kernels' order is the
      // reverse, lowest row first.
      std::reverse(column, column + emitted);
    }
    written += emitted;
    out.offsets[t + 1] = static_cast<std::uint32_t>(written);
  }
  out.kmers.resize(written);
}

bool sketch_by_jem_sets(std::span<const Minimizer> minimizers,
                        std::uint32_t interval_length,
                        const HashFamily& hashes, SketchScratch& scratch,
                        std::vector<KmerCode>& kmers,
                        std::vector<std::uint64_t>& sets) {
  return detail::sketch_by_jem_sets_with(sketch_lanes(), minimizers,
                                         interval_length, hashes, scratch,
                                         kmers, sets);
}

bool detail::sketch_by_jem_sets_with(int lanes,
                                     std::span<const Minimizer> minimizers,
                                     std::uint32_t interval_length,
                                     const HashFamily& hashes,
                                     SketchScratch& scratch,
                                     std::vector<KmerCode>& kmers,
                                     std::vector<std::uint64_t>& sets) {
  const std::size_t count = minimizers.size();
  // One block: r(0) = |M|, every interval runs to the end of the list.
  if (count > 0 &&
      minimizers.back().position >
          static_cast<std::uint64_t>(minimizers.front().position) +
              interval_length) {
    return false;
  }
  const auto trials = static_cast<std::size_t>(hashes.trials());
  const std::size_t words = trial_set_words(trials);
  std::vector<KmerCode>& list = scratch.kmers;
  list.resize(count);
  KmerCode bits = 0;  // every k-mer or-ed: its width decides the kernel
  for (std::size_t i = 0; i < count; ++i) {
    list[i] = minimizers[i].kmer;
    bits |= list[i];
  }

  // Each minimizer's trial set, then only the marked minimizers kept.
  sets.assign(count * words, 0);
  if (lanes > 1 && bits >> kLaneKmerBits == 0) {
    jem_set_lanes(lanes, count, list.data(), hashes, sets.data());
  } else {
    for (std::size_t t = 0; t < trials; ++t) {
      std::uint64_t* const word = sets.data() + t / 64;
      suffix_minima(hashes[static_cast<int>(t)], list.data(), 0, count,
                    [&](std::size_t i, std::uint64_t, bool record) {
                      word[i * words] |= std::uint64_t{record} << (t % 64);
                    });
    }
  }
  kmers.clear();
  for (std::size_t i = 0; i < count; ++i) {
    const std::uint64_t* const set = sets.data() + i * words;
    if (std::all_of(set, set + words, [](std::uint64_t w) { return w == 0; })) {
      continue;
    }
    std::copy(set, set + words, sets.data() + kmers.size() * words);
    kmers.push_back(list[i]);
  }
  sets.resize(kmers.size() * words);
  return true;
}

Sketch sketch_by_jem(std::span<const Minimizer> minimizers,
                     std::uint32_t interval_length,
                     const HashFamily& hashes) {
  SketchScratch scratch;
  FlatSketch flat;
  sketch_by_jem(minimizers, interval_length, hashes, scratch, flat);
  Sketch sketch;
  sketch.per_trial.resize(static_cast<std::size_t>(hashes.trials()));
  for (int t = 0; t < hashes.trials(); ++t) {
    const auto kmers = flat.trial(t);
    auto& sorted = sketch.per_trial[static_cast<std::size_t>(t)];
    sorted.assign(kmers.begin(), kmers.end());
    std::sort(sorted.begin(), sorted.end());
  }
  return sketch;
}

Sketch sketch_by_jem(std::string_view seq, const SketchParams& params,
                     const HashFamily& hashes) {
  const std::vector<Minimizer> minimizers =
      minimizer_scan(seq, params.minimizer);
  return sketch_by_jem(minimizers, params.interval_length, hashes);
}

void classic_minhash(std::string_view seq, int k, const HashFamily& hashes,
                     SketchScratch& scratch, FlatSketch& out) {
  detail::classic_minhash_with(sketch_lanes(), seq, k, hashes, scratch, out);
}

void detail::classic_minhash_with(int lanes, std::string_view seq, int k,
                                  const HashFamily& hashes,
                                  SketchScratch& scratch, FlatSketch& out) {
  const auto trials = static_cast<std::size_t>(hashes.trials());
  out.clear();
  const KmerCodec codec(k);

  // Rolling scan over all k-mers, restarting after ambiguous bases.
  std::vector<KmerCode>& kmers = scratch.kmers;
  kmers.clear();
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
    kmers.push_back(fwd < rc ? fwd : rc);
  }

  out.offsets.reserve(trials + 1);
  out.offsets.push_back(0);
  if (lanes > 1 && k <= kMaxLaneK) {
    minhash_lanes(lanes, kmers, hashes, out);
    return;
  }
  // The scalar loop: per trial, the argmin by (hash, k-mer).
  for (std::size_t t = 0; t < trials; ++t) {
    if (!kmers.empty()) {
      const LcgHash& hash = hashes[static_cast<int>(t)];
      HashedKmer best{hash(kmers[0]), kmers[0]};
      for (std::size_t i = 1; i < kmers.size(); ++i) {
        const HashedKmer candidate{hash(kmers[i]), kmers[i]};
        if (candidate.less_than(best)) best = candidate;
      }
      out.kmers.push_back(best.kmer);
    }
    out.offsets.push_back(static_cast<std::uint32_t>(out.kmers.size()));
  }
}

Sketch classic_minhash(std::string_view seq, int k, const HashFamily& hashes) {
  SketchScratch scratch;
  FlatSketch flat;
  classic_minhash(seq, k, hashes, scratch, flat);
  Sketch sketch;
  sketch.per_trial.resize(static_cast<std::size_t>(hashes.trials()));
  for (int t = 0; t < hashes.trials(); ++t) {
    const auto kmers = flat.trial(t);
    sketch.per_trial[static_cast<std::size_t>(t)].assign(kmers.begin(),
                                                         kmers.end());
  }
  return sketch;
}

}  // namespace jem::core
