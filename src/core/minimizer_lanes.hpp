// Internal interface of the minimizer scan kernels: the scalar loop, the
// lane-parallel kernels, and the dispatch between them. Callers outside
// src/core use minimizer_scan (core/minimizer.hpp), which runs the kernel
// chosen once per process; the tests force each kernel through here.
#pragma once

#include <cstddef>
#include <span>
#include <string_view>
#include <vector>

#include "core/minimizer.hpp"

namespace jem::core::detail {

/// Largest k the lane kernels take: a canonical code of k <= 16 fits the
/// 32 bits above the position in a packed key.
inline constexpr int kMaxLaneK = 16;

/// An ACGT run takes a lane kernel when each of its lanes gets at least
/// this many windows; shorter runs cost less on the scalar loop.
inline constexpr std::size_t kMinLaneWindows = 16;

/// The smallest group of equal-length sequences that the lane kernel of
/// `lanes` scans one per lane; a smaller group costs less scanned one
/// sequence at a time. A group costs about its length in steps however
/// many lanes it fills, a lone 1 kbp tile about a quarter (8 lanes) or a
/// third (4 lanes) of that. On 1 kbp tiles at k = 16, w = 100 (one pinned
/// thread), a group of 5 in 8 lanes took 0.92x the time of 5 lone tiles
/// and a group of 4 took 1.12x; in 4 lanes a full group took 0.78x and a
/// group of 3 took 1.00x.
[[nodiscard]] constexpr std::size_t min_group_segments(int lanes) noexcept {
  return lanes >= 8 ? 5 : 4;
}

/// The scalar loop, for both orderings: appends the minimizers of `seq` to
/// `out` with their positions shifted by `offset`. It is the fallback of
/// the lane kernels and the oracle they are tested against.
void minimizer_scan_scalar(std::string_view seq, std::size_t offset,
                           const MinimizerParams& p, MinimizerScratch& scratch,
                           std::vector<Minimizer>& out);

/// True when this process can run the kernel of `lanes` windows per step:
/// 1 (the scalar loop, everywhere), 4 (AVX2) or 8 (AVX-512BW).
[[nodiscard]] bool minimizer_lanes_supported(int lanes) noexcept;

/// The lane kernel of `lanes` (4 or 8, supported) for kLexicographic,
/// k <= kMaxLaneK and |seq| < 2^32: appends the minimizers of `seq` to
/// `out`. ACGT runs too short to fill the lanes go to the scalar loop.
void lane_scan(int lanes, std::string_view seq, const MinimizerParams& p,
               MinimizerScratch& scratch, std::vector<Minimizer>& out);

/// The lane kernel of `lanes` (4 or 8, supported) for kLexicographic and
/// k <= kMaxLaneK over many sequences: replaces outs[i] with the
/// minimizers of seqs[i]. Groups of at least min_group_segments(lanes)
/// all-ACGT sequences of one length, at least k + w - 1 bases each, are
/// scanned one per lane; every other sequence alone. Returns the number
/// scanned in groups.
std::size_t lane_scan_many(int lanes, std::span<const std::string_view> seqs,
                           const MinimizerParams& p, MinimizerScratch& scratch,
                           std::span<std::vector<Minimizer>> outs);

/// minimizer_scan on the kernel of `lanes` (supported): the lane kernel
/// where the parameters allow it, the scalar loop otherwise.
void minimizer_scan_with(int lanes, std::string_view seq,
                         const MinimizerParams& p, MinimizerScratch& scratch,
                         std::vector<Minimizer>& out);

/// minimizer_scan_many on the kernel of `lanes` (supported).
std::size_t minimizer_scan_many_with(int lanes,
                                     std::span<const std::string_view> seqs,
                                     const MinimizerParams& p,
                                     MinimizerScratch& scratch,
                                     std::span<std::vector<Minimizer>> outs);

}  // namespace jem::core::detail
