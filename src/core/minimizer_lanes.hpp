// Internal interface of the minimizer scan kernels: the scalar loop, the
// lane-parallel kernels, and the dispatch between them. Callers outside
// src/core use minimizer_scan (core/minimizer.hpp), which runs the kernel
// chosen once per process; the tests force each kernel through here.
#pragma once

#include <cstddef>
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

/// minimizer_scan on the kernel of `lanes` (supported): the lane kernel
/// where the parameters allow it, the scalar loop otherwise.
void minimizer_scan_with(int lanes, std::string_view seq,
                         const MinimizerParams& p, MinimizerScratch& scratch,
                         std::vector<Minimizer>& out);

}  // namespace jem::core::detail
