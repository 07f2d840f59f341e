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
// One production kernel, sketch_by_jem: O(|M_o|·T). Per trial, each
// interval minimum is a block-decomposed suffix/prefix minimum (see the
// flat overload below), with the trials run 8 or 4 to a vector where the
// CPU allows (src/core/sketch_lanes.cpp, sketch_lanes()). Its oracles,
// sketch_by_jem_reference (the pre-overhaul std::deque kernel) and
// sketch_by_jem_naive (the literal per-interval argmin loop), live in
// tests/oracle/kernels.hpp, which only tests and benchmarks link.
//
// Classical MinHash (classic_minhash): per trial, the single argmin of h_t
// over ALL canonical k-mers of the sequence — no minimizer thinning, no
// interval resolution. This is the scheme Fig 6 shows needing ~150 trials
// to match JEM's 30.
#pragma once

#include <cstdint>
#include <span>
#include <string_view>
#include <vector>

#include "core/hash_family.hpp"
#include "core/minimizer.hpp"

namespace jem::core {

/// Per-trial sketch sets: per_trial[t] is the sorted, deduplicated list of
/// minhash k-mer codes for trial t. The allocating overloads sort what the
/// flat kernels emit, so oracles and tests can compare these lists as they
/// stand.
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

/// The query-side sketch layout: all trials' k-mer lists concatenated in one
/// flat array with a trials+1 offset table. trial(t) holds the trial's
/// distinct interval minima in the kernels' emission order: the set of
/// Sketch::per_trial[t], not its order. A one-block list (every query
/// segment) comes lowest (h_t, k-mer) first, as the suffix-minimum walk
/// emits it; a list of several blocks is sorted by k-mer. Every kernel
/// (lanes or scalar) emits the same order. The storage is two reusable
/// vectors instead of T+1 heap blocks, which is what makes the map_segment
/// steady state allocation-free.
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
/// a group) per minimizer in the hashed, prefix and minima arrays.
struct SketchScratch {
  MinimizerScratch scan;                  // minimizer_scan window blocks
  std::vector<Minimizer> minimizers;      // M_o(s, w) of the segment
  std::vector<KmerCode> kmers;            // minimizer (or MinHash) k-mers
  std::vector<std::uint32_t> ends;        // interval ends r(i)
  std::vector<std::uint32_t> blocks;      // block starts, then |M|
  std::vector<std::uint64_t> hashed;      // the trials' minimizer hashes
  std::vector<std::uint64_t> prefix_hash; // next block's prefix minima
  std::vector<KmerCode> prefix_kmer;
  std::vector<KmerCode> minima;           // lane kernel: interval minima
  std::vector<std::uint64_t> emits;       // lane kernel: emit masks
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

/// Algorithm 1 over a precomputed minimizer list (fast path).
[[nodiscard]] Sketch sketch_by_jem(std::span<const Minimizer> minimizers,
                                   std::uint32_t interval_length,
                                   const HashFamily& hashes);

/// Allocation-free (at steady state) form of the fast path: fills `out`
/// reusing `scratch`. Each trial list is the allocating overload's
/// per_trial set, in emission order (FlatSketch).
///
/// r(i) is one past the last minimizer with p_j <= p_i + ℓ. Blocks start at
/// b_0 = 0 and b_{k+1} = r(b_k), so an interval starting in block k ends
/// by the end of block k+1 and its minimum is min(suffix minimum of block
/// k at i, prefix minimum of block k+1 at r(i) - 1). Per trial the blocks
/// are walked last to first; each gets one backward pass that hashes,
/// stores the hashes and keeps the suffix minimum, merged with the next
/// block's prefix minima from one forward pass. A list that spans at most
/// ℓ (every end segment) is one block: a plain suffix-minimum scan whose
/// emits are already distinct, so only lists of several blocks are sorted
/// and deduplicated. The lane kernels run this walk once per group of 8 or
/// 4 trials.
void sketch_by_jem(std::span<const Minimizer> minimizers,
                   std::uint32_t interval_length, const HashFamily& hashes,
                   SketchScratch& scratch, FlatSketch& out);

/// Words of one k-mer's T-bit trial set: bit t of word t / 64 is trial t.
[[nodiscard]] constexpr std::size_t trial_set_words(std::size_t trials) {
  return (trials + 63) / 64;
}

/// Algorithm 1 for a minimizer list that spans at most ℓ (one block: every
/// query tile and end segment), emitted as trial sets instead of columns.
/// Trial t's sketch is then the set of suffix-minimum records of h_t over
/// the list walked right to left, each record one minimizer. Only the
/// rightmost occurrence of a k-mer can be a record, so the walk marks bit t
/// on the minimizer where each record happens, and the marked minimizers
/// hold distinct k-mers. Writes them to `kmers`, in list order, and their
/// trial sets to `sets` (trial_set_words(T) words each). The same walk as
/// the column kernel, on the same lanes (sketch_lanes()). Returns false,
/// writing nothing, for a list that spans more than ℓ.
[[nodiscard]] bool sketch_by_jem_sets(std::span<const Minimizer> minimizers,
                                      std::uint32_t interval_length,
                                      const HashFamily& hashes,
                                      SketchScratch& scratch,
                                      std::vector<KmerCode>& kmers,
                                      std::vector<std::uint64_t>& sets);

/// Algorithm 1 from the raw sequence (runs the minimizer scan first).
[[nodiscard]] Sketch sketch_by_jem(std::string_view seq,
                                   const SketchParams& params,
                                   const HashFamily& hashes);

/// Classical MinHash over all canonical k-mers of `seq`. per_trial[t] has
/// exactly one k-mer (or zero if the sequence has no valid k-mer).
[[nodiscard]] Sketch classic_minhash(std::string_view seq, int k,
                                     const HashFamily& hashes);

/// Scratch-reusing form of classic_minhash (same trial lists).
void classic_minhash(std::string_view seq, int k, const HashFamily& hashes,
                     SketchScratch& scratch, FlatSketch& out);

}  // namespace jem::core
