// Internal interface of the sketch kernels: the per-trial scalar loops, the
// trial-parallel lane kernels, and the dispatch between them. Callers
// outside src/core use sketch_by_jem and classic_minhash (core/sketch.hpp),
// which run the kernel chosen once per process; the tests force each kernel
// through here.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <string_view>
#include <vector>

#include "core/sketch.hpp"

namespace jem::core::detail {

/// True when this process can run the sketch kernel of `lanes` trials per
/// vector: 1 (the scalar loop, everywhere), 4 (AVX2) or 8 (AVX-512F+DQ).
[[nodiscard]] bool sketch_lanes_supported(int lanes) noexcept;

/// sketch_by_jem on the kernel of `lanes` (supported): the lane kernel when
/// every k-mer fits 2·kMaxLaneK bits (the range the lane modulo is exact
/// on), the per-trial scalar loop otherwise.
void sketch_by_jem_with(int lanes, std::span<const Minimizer> minimizers,
                        std::uint32_t interval_length,
                        const HashFamily& hashes, SketchScratch& scratch,
                        FlatSketch& out);

/// sketch_by_jem_sets on the kernel of `lanes` (supported), with the same
/// choice between the lane kernel and the scalar loop as
/// sketch_by_jem_with.
[[nodiscard]] bool sketch_by_jem_sets_with(
    int lanes, std::span<const Minimizer> minimizers,
    std::uint32_t interval_length, const HashFamily& hashes,
    SketchScratch& scratch, std::vector<KmerCode>& kmers,
    std::vector<std::uint64_t>& sets);

/// classic_minhash on the kernel of `lanes` (supported): the lane kernel
/// for k <= kMaxLaneK, the per-trial scalar loop otherwise.
void classic_minhash_with(int lanes, std::string_view seq, int k,
                          const HashFamily& hashes, SketchScratch& scratch,
                          FlatSketch& out);

/// The interval minima of every trial on the lane kernel of `lanes` (4 or
/// 8, supported), over the `count` minimizers whose k-mers (all < 2^32),
/// interval ends and block starts sketch_by_jem_with left in `scratch`.
/// Fills out.kmers and out.offsets[1..T]; out.offsets has T + 1 entries.
void jem_lanes(int lanes, std::size_t count, const HashFamily& hashes,
               SketchScratch& scratch, FlatSketch& out);

/// The one-block trial sets of every trial on the lane kernel of `lanes`
/// (4 or 8, supported) over kmers[0, count) (all < 2^32): ors bit t into
/// word t / 64 of sets[i * trial_set_words(T), ...) at each minimizer i
/// where trial t's suffix minimum strictly improves. `sets` starts zeroed.
void jem_set_lanes(int lanes, std::size_t count, const KmerCode* kmers,
                   const HashFamily& hashes, std::uint64_t* sets);

/// Every trial's argmin by (hash, k-mer) over `kmers` (all < 2^32) on the
/// lane kernel of `lanes` (4 or 8, supported), appended to `out`: one k-mer
/// per trial, none when `kmers` is empty, and the T offsets after the
/// first.
void minhash_lanes(int lanes, std::span<const KmerCode> kmers,
                   const HashFamily& hashes, FlatSketch& out);

/// Writes h_t(x) for every trial of `hashes`, padding included
/// (hashes.lanes().p.size() values), to `out`, hashed by the lane kernel of
/// `lanes` (4 or 8, supported). x must be below 2^32.
void hash_trials(int lanes, const HashFamily& hashes, KmerCode x,
                 std::uint64_t* out);

}  // namespace jem::core::detail
