// Sketch generation — the paper's Algorithm 1 (Sketch_byJEM) and the
// classical MinHash scheme it is compared against in Fig 6.
//
// Sketch_byJEM(s, ℓ, H):
//   M_o(s, w) = position-sorted distinct minimizers of s
//   for each minimizer tuple <k_i, p_i>:
//     M_i = { <k_j, p_j> : p_i <= p_j <= p_i + ℓ }       (the interval)
//     for each trial t: emit argmin_{x ∈ M_i} h_t(x)
//
// The result, per trial, is the SET of interval minhashes (duplicate emits
// of the same k-mer collapse: the sketch table keys on the k-mer, and
// Algorithm 2 counts at most one hit per (trial, subject)).
//
// Every sketch, of a query or of a subject, is written in one shape: rows
// of distinct k-mers, each with its T-bit trial set (bit t: trial t's set
// holds the k-mer). One kernel, sketch_by_jem_sets, writes them in
// O(|M_o|·T): per trial, each interval minimum is a block-decomposed
// suffix/prefix minimum, and the walk marks bit t on the minimizer the
// minimum came from, with the trials run 8 or 4 to a vector where the CPU
// allows (src/core/sketch_lanes.cpp, sketch_lanes()). Its oracles,
// sketch_by_jem_reference (the pre-overhaul std::deque kernel) and
// sketch_by_jem_naive (the literal per-interval argmin loop), live in
// tests/oracle/kernels.hpp, which only tests and benchmarks link.
//
// Classical MinHash (classic_minhash_sets): per trial, the single argmin of
// h_t over ALL canonical k-mers of the sequence — no minimizer thinning, no
// interval resolution. This is the scheme Fig 6 shows needing ~150 trials
// to match JEM's 30. It writes the same rows.
//
// Sketch and FlatSketch are views of the rows trial by trial, for tests,
// benchmarks and examples; nothing in the library maps or builds from them.
#pragma once

#include <bit>
#include <cstdint>
#include <span>
#include <string_view>
#include <vector>

#include "core/hash_family.hpp"
#include "core/minimizer.hpp"

namespace jem::core {

/// Per-trial sketch sets: per_trial[t] is the sorted, deduplicated list of
/// minhash k-mer codes for trial t.
struct Sketch {
  std::vector<std::vector<KmerCode>> per_trial;

  [[nodiscard]] int trials() const noexcept {
    return static_cast<int>(per_trial.size());
  }

  /// Total number of (trial, kmer) entries.
  [[nodiscard]] std::size_t total_entries() const noexcept {
    std::size_t n = 0;
    for (const auto& v : per_trial) n += v.size();
    return n;
  }
};

/// A sketch's rows regrouped trial by trial in one flat array with a
/// trials+1 offset table: trial(t) holds the set Sketch::per_trial[t], in no
/// promised order. Two reusable vectors instead of T+1 heap blocks.
struct FlatSketch {
  std::vector<KmerCode> kmers;           // trial-major concatenation
  std::vector<std::uint32_t> offsets;    // trials() + 1 entries

  [[nodiscard]] int trials() const noexcept {
    return offsets.empty() ? 0 : static_cast<int>(offsets.size()) - 1;
  }

  [[nodiscard]] std::span<const KmerCode> trial(int t) const noexcept {
    const auto i = static_cast<std::size_t>(t);
    return std::span<const KmerCode>(kmers).subspan(
        offsets[i], offsets[i + 1] - offsets[i]);
  }

  [[nodiscard]] std::size_t total_entries() const noexcept {
    return kmers.size();
  }

  void clear() noexcept {
    kmers.clear();
    offsets.clear();
  }
};

/// Reusable state of the sketch kernels. Hold one per thread (MapScratch
/// embeds one) and every buffer converges to its high-water capacity: the
/// minimizer list, the scan's window blocks and the interval kernel's
/// per-minimizer arrays. The lane kernels keep one row of lanes (trials of
/// a group) per minimizer in the hashed and prefix arrays, which only a
/// list of several blocks fills.
struct SketchScratch {
  MinimizerScratch scan;                  // minimizer_scan window blocks
  std::vector<Minimizer> minimizers;      // M_o(s, w) of the segment
  std::vector<KmerCode> kmers;            // minimizer (or MinHash) k-mers
  std::vector<std::uint32_t> ends;        // interval ends r(i)
  std::vector<std::uint32_t> blocks;      // block starts, then |M|
  std::vector<std::uint64_t> hashed;      // the trials' minimizer hashes
  std::vector<std::uint64_t> prefix_hash; // next block's prefix minima,
  std::vector<KmerCode> prefix_kmer;      // with the set offset of the
  std::vector<std::uint64_t> prefix_set;  // minimizer each came from
  std::vector<std::uint32_t> order;       // marked rows sorted by k-mer,
  std::vector<std::uint32_t> order_spare; // and the sort's second buffer
  std::vector<KmerCode> view_kmers;       // make_sketch's rows (the view)
  std::vector<std::uint64_t> view_sets;
};

struct SketchParams {
  MinimizerParams minimizer;          // k and w
  std::uint32_t interval_length = 1000;  // ℓ, in bp
};

/// Trials per vector of the sketch kernels this process runs: 8
/// (AVX-512F+DQ), 4 (AVX2) or 1 (the per-trial scalar loop), chosen once
/// from the CPU. k-mers wider than 32 bits (k > 16) always take the scalar
/// loop. The engine publishes it as the gauge core.sketch.lanes.
[[nodiscard]] int sketch_lanes() noexcept;

/// Words of one k-mer's T-bit trial set: bit t of word t / 64 is trial t.
[[nodiscard]] constexpr std::size_t trial_set_words(std::size_t trials) {
  return (trials + 63) / 64;
}

/// Algorithm 1 as rows: writes the sketch's distinct k-mers to `kmers`
/// and their trial sets to `sets` (trial_set_words(T) words each), reusing
/// `scratch`. Rows come in list order of the first minimizer marked with
/// the k-mer.
///
/// r(i) is one past the last minimizer with p_j <= p_i + ℓ. Blocks start at
/// b_0 = 0 and b_{k+1} = r(b_k), so an interval starting in block k ends
/// by the end of block k+1 and its minimum is min(suffix minimum of block
/// k at i, prefix minimum of block k+1 at r(i) - 1). Per trial the blocks
/// are walked last to first. In the last block every interval runs to the
/// end of the list: bit t goes on each minimizer where trial t's suffix
/// minimum strictly improves, and only the rightmost occurrence of a k-mer
/// can improve it. Each earlier block gets one backward pass that hashes,
/// stores the hashes and keeps the suffix minimum with the minimizer it
/// came from, merged with the next block's prefix minima (and theirs) from
/// one forward pass; bit t goes on the minimizer of each interval minimum.
/// Only a list of several blocks (a list spanning more than ℓ) can mark one
/// k-mer on two minimizers, a repeat that is the minimum in two blocks;
/// its marked rows are merged by one sort by k-mer. A list spanning at most
/// ℓ (every query tile and end segment) is one block and skips the merge.
/// The lane kernels run this walk once per group of 8 or 4 trials.
void sketch_by_jem_sets(std::span<const Minimizer> minimizers,
                        std::uint32_t interval_length,
                        const HashFamily& hashes, SketchScratch& scratch,
                        std::vector<KmerCode>& kmers,
                        std::vector<std::uint64_t>& sets);

/// Classical MinHash over all canonical k-mers of `seq` as rows: each trial
/// marks its argmin k-mer (none if the sequence has no valid k-mer), and
/// trials that share one are merged by the same sort by k-mer. Rows come
/// in order of the first trial that picks the k-mer.
void classic_minhash_sets(std::string_view seq, int k,
                          const HashFamily& hashes, SketchScratch& scratch,
                          std::vector<KmerCode>& kmers,
                          std::vector<std::uint64_t>& sets);

/// Calls visit(t, kmer) for each trial t in each row's set (`words` words a
/// row), row by row.
template <class Visit>
void for_each_entry(std::span<const KmerCode> kmers,
                    std::span<const std::uint64_t> sets, std::size_t words,
                    Visit&& visit) {
  for (std::size_t d = 0; d < kmers.size(); ++d) {
    for (std::size_t w = 0; w < words; ++w) {
      for (std::uint64_t bits = sets[d * words + w]; bits != 0;
           bits &= bits - 1) {
        visit(w * 64 + static_cast<std::size_t>(std::countr_zero(bits)),
              kmers[d]);
      }
    }
  }
}

/// The view: the rows regrouped trial by trial into `out` (trial t lists
/// the k-mers whose set holds t, in row order).
void rows_by_trial(std::span<const KmerCode> kmers,
                   std::span<const std::uint64_t> sets, int trials,
                   FlatSketch& out);

/// Algorithm 1 over a precomputed minimizer list, as the sorted view.
[[nodiscard]] Sketch sketch_by_jem(std::span<const Minimizer> minimizers,
                                   std::uint32_t interval_length,
                                   const HashFamily& hashes);

/// Algorithm 1 from the raw sequence (runs the minimizer scan first).
[[nodiscard]] Sketch sketch_by_jem(std::string_view seq,
                                   const SketchParams& params,
                                   const HashFamily& hashes);

/// Classical MinHash over all canonical k-mers of `seq`. per_trial[t] has
/// exactly one k-mer (or zero if the sequence has no valid k-mer).
[[nodiscard]] Sketch classic_minhash(std::string_view seq, int k,
                                     const HashFamily& hashes);

}  // namespace jem::core
