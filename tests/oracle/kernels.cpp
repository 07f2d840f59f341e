#include "oracle/kernels.hpp"

#include <algorithm>
#include <deque>
#include <map>
#include <set>
#include <stdexcept>

#include "core/dna.hpp"
#include "core/kmer.hpp"
#include "util/prng.hpp"

namespace jem::oracle {

using core::HashFamily;
using core::KmerCode;
using core::Minimizer;
using core::Sketch;

namespace {

/// Sorts and dedups every trial's k-mer list in place.
void normalize(Sketch& sketch) {
  for (auto& kmers : sketch.per_trial) {
    std::sort(kmers.begin(), kmers.end());
    kmers.erase(std::unique(kmers.begin(), kmers.end()), kmers.end());
  }
}

/// argmin by (hash value, k-mer code) — the k-mer tie-break makes the result
/// independent of scan order.
struct HashedKmer {
  std::uint64_t hash;
  KmerCode kmer;

  [[nodiscard]] bool less_than(const HashedKmer& other) const noexcept {
    return hash < other.hash || (hash == other.hash && kmer < other.kmer);
  }
};

/// A maximal run of ACGT bases: [begin, end) over the original sequence.
struct Run {
  std::size_t begin;
  std::size_t end;
};

std::vector<Run> acgt_runs(std::string_view seq) {
  std::vector<Run> runs;
  std::size_t begin = 0;
  bool in_run = false;
  for (std::size_t i = 0; i < seq.size(); ++i) {
    const bool valid = core::base_code(seq[i]) != core::kInvalidBase;
    if (valid && !in_run) {
      begin = i;
      in_run = true;
    } else if (!valid && in_run) {
      runs.push_back({begin, i});
      in_run = false;
    }
  }
  if (in_run) runs.push_back({begin, seq.size()});
  return runs;
}

}  // namespace

std::vector<Minimizer> minimizer_scan_naive(std::string_view seq,
                                            const core::MinimizerParams& p) {
  if (p.k < 1 || p.k > core::kMaxK || p.w < 1) {
    throw std::invalid_argument("minimizer_scan_naive: bad k or w");
  }
  const core::KmerCodec codec(p.k);
  std::vector<Minimizer> out;
  for (const Run& run : acgt_runs(seq)) {
    const std::size_t run_len = run.end - run.begin;
    if (run_len < static_cast<std::size_t>(p.k)) continue;
    const std::size_t num_kmers = run_len - static_cast<std::size_t>(p.k) + 1;
    const std::size_t window =
        std::min<std::size_t>(static_cast<std::size_t>(p.w), num_kmers);

    // Pre-encode every canonical k-mer of the run and its ordering key
    // (smaller key = preferred minimizer).
    std::vector<KmerCode> canon(num_kmers);
    std::vector<std::uint64_t> keys(num_kmers);
    for (std::size_t i = 0; i < num_kmers; ++i) {
      const auto code = codec.encode(
          seq.substr(run.begin + i, static_cast<std::size_t>(p.k)));
      canon[i] = codec.canonical(*code);
      keys[i] = p.ordering == core::MinimizerOrdering::kLexicographic
                    ? canon[i]
                    : util::mix64(canon[i]);
    }

    for (std::size_t w_begin = 0; w_begin + window <= num_kmers; ++w_begin) {
      std::size_t best = w_begin;
      for (std::size_t j = w_begin + 1; j < w_begin + window; ++j) {
        if (keys[j] < keys[best]) best = j;  // leftmost tie-break via <
      }
      const Minimizer m{canon[best],
                        static_cast<std::uint32_t>(run.begin + best)};
      if (out.empty() || out.back() != m) out.push_back(m);
    }
  }
  return out;
}

Sketch sketch_by_jem_reference(std::span<const Minimizer> minimizers,
                               std::uint32_t interval_length,
                               const HashFamily& hashes) {
  const int trials = hashes.trials();
  Sketch sketch;
  sketch.per_trial.resize(static_cast<std::size_t>(trials));
  if (minimizers.empty()) return sketch;

  // One sliding-window-minimum deque per trial, advanced in lockstep with
  // the interval two-pointer. Entries store (hash, kmer, index-in-list).
  struct Entry {
    HashedKmer hk;
    std::size_t index;
  };
  std::vector<std::deque<Entry>> deques(static_cast<std::size_t>(trials));

  std::size_t right = 0;  // first minimizer not yet in any deque
  for (std::size_t i = 0; i < minimizers.size(); ++i) {
    const std::uint64_t limit =
        static_cast<std::uint64_t>(minimizers[i].position) + interval_length;

    // Extend the interval: admit minimizers with p_j <= p_i + ℓ.
    while (right < minimizers.size() && minimizers[right].position <= limit) {
      const KmerCode kmer = minimizers[right].kmer;
      for (int t = 0; t < trials; ++t) {
        auto& deque = deques[static_cast<std::size_t>(t)];
        const HashedKmer hk{hashes.hash(t, kmer), kmer};
        while (!deque.empty() && !deque.back().hk.less_than(hk)) {
          deque.pop_back();
        }
        deque.push_back({hk, right});
      }
      ++right;
    }

    // Shrink: evict minimizers that precede the interval start.
    for (int t = 0; t < trials; ++t) {
      auto& deque = deques[static_cast<std::size_t>(t)];
      while (deque.front().index < i) deque.pop_front();
      auto& kmers = sketch.per_trial[static_cast<std::size_t>(t)];
      const KmerCode minhash = deque.front().hk.kmer;
      if (kmers.empty() || kmers.back() != minhash) kmers.push_back(minhash);
    }
  }

  normalize(sketch);
  return sketch;
}

Sketch sketch_by_jem_naive(std::span<const Minimizer> minimizers,
                           std::uint32_t interval_length,
                           const HashFamily& hashes) {
  const int trials = hashes.trials();
  Sketch sketch;
  sketch.per_trial.resize(static_cast<std::size_t>(trials));

  for (std::size_t i = 0; i < minimizers.size(); ++i) {
    const std::uint64_t limit =
        static_cast<std::uint64_t>(minimizers[i].position) + interval_length;
    std::size_t end = i;
    while (end < minimizers.size() && minimizers[end].position <= limit) {
      ++end;
    }
    for (int t = 0; t < trials; ++t) {
      HashedKmer best{hashes.hash(t, minimizers[i].kmer), minimizers[i].kmer};
      for (std::size_t j = i + 1; j < end; ++j) {
        const HashedKmer hk{hashes.hash(t, minimizers[j].kmer),
                            minimizers[j].kmer};
        if (hk.less_than(best)) best = hk;
      }
      sketch.per_trial[static_cast<std::size_t>(t)].push_back(best.kmer);
    }
  }

  normalize(sketch);
  return sketch;
}

namespace {

/// The reference path's sketch: the deque kernel over a fresh minimizer
/// scan for the JEM scheme, the allocating make_sketch otherwise.
Sketch reference_sketch(const core::JemMapper& mapper,
                        std::string_view segment) {
  const core::MapParams& params = mapper.params();
  return mapper.scheme() == core::SketchScheme::kJem
             ? sketch_by_jem_reference(
                   core::minimizer_scan(segment,
                                        {params.k, params.w, params.ordering}),
                   params.segment_length, mapper.hashes())
             : core::make_sketch(segment, params, mapper.scheme(),
                                 mapper.hashes());
}

}  // namespace

core::MapResult map_segment_reference(const core::JemMapper& mapper,
                                      std::string_view segment,
                                      ReferenceCounters& counters) {
  const core::MapParams& params = mapper.params();
  const Sketch sketch = reference_sketch(mapper, segment);

  core::MapResult best;
  counters.votes.new_round();
  for (int t = 0; t < params.trials; ++t) {
    counters.seen.new_round();
    for (KmerCode kmer : sketch.per_trial[static_cast<std::size_t>(t)]) {
      for (io::SeqId subject : mapper.table().flat().lookup(t, kmer)) {
        if (!counters.seen.first_time(subject)) continue;
        const std::uint32_t count = counters.votes.increment(subject);
        if (count > best.votes ||
            (count == best.votes && subject < best.subject)) {
          best.votes = count;
          best.subject = subject;
        }
      }
    }
  }

  if (best.votes < params.min_votes) return {};
  return best;
}

std::vector<core::MapResult> map_segment_topx_reference(
    const core::JemMapper& mapper, std::string_view segment, std::size_t x) {
  const core::MapParams& params = mapper.params();
  const Sketch sketch = reference_sketch(mapper, segment);

  std::map<io::SeqId, std::uint32_t> votes;
  for (int t = 0; t < params.trials; ++t) {
    std::set<io::SeqId> hits;
    for (KmerCode kmer : sketch.per_trial[static_cast<std::size_t>(t)]) {
      for (io::SeqId subject : mapper.table().flat().lookup(t, kmer)) {
        hits.insert(subject);
      }
    }
    for (io::SeqId subject : hits) ++votes[subject];
  }

  std::vector<core::MapResult> ranked;
  for (const auto& [subject, count] : votes) {
    if (count >= params.min_votes) ranked.push_back({subject, count});
  }
  std::stable_sort(ranked.begin(), ranked.end(),
                   [](const core::MapResult& a, const core::MapResult& b) {
                     return a.votes > b.votes;
                   });
  if (ranked.size() > x) ranked.resize(x);
  return ranked;
}

}  // namespace jem::oracle
