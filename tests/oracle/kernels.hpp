// Frozen kernel oracles. The system never runs these; tests check the
// production kernels against them bit for bit, and bench_micro (with
// scripts/bench_hotpath.sh's gate) measures the hot path against
// map_segment_reference. Do not optimize them.
//
//  * minimizer_scan_naive     — the O(n·w) window minimum of every window;
//  * sketch_by_jem_naive      — the literal per-interval argmin loop of
//                               Algorithm 1 (O(|M_o|·I·T)), also the
//                               ablation baseline;
//  * sketch_by_jem_reference  — the pre-overhaul std::deque sliding-window
//                               kernel, kept verbatim;
//  * map_segment_reference    — the pre-overhaul query path over a
//                               JemMapper's public accessors;
//  * map_segment_topx_reference — its top-x ranking, counted in ordered
//                               containers.
#pragma once

#include <cstdint>
#include <span>
#include <string_view>
#include <vector>

#include "core/hash_family.hpp"
#include "core/mapper.hpp"
#include "core/minimizer.hpp"
#include "core/sketch.hpp"
#include "oracle/hit_counters.hpp"

namespace jem::oracle {

/// M_o(s, w) by brute force: every window's minimum over pre-encoded keys,
/// the same list core::minimizer_scan returns.
[[nodiscard]] std::vector<core::Minimizer> minimizer_scan_naive(
    std::string_view seq, const core::MinimizerParams& p);

/// Literal per-interval implementation of Algorithm 1.
[[nodiscard]] core::Sketch sketch_by_jem_naive(
    std::span<const core::Minimizer> minimizers,
    std::uint32_t interval_length, const core::HashFamily& hashes);

/// The pre-overhaul production kernel: per-trial std::deque sliding
/// windows allocated per call. The baseline the BM_Hotpath* benches (and
/// BENCH_hotpath.json) compare against.
[[nodiscard]] core::Sketch sketch_by_jem_reference(
    std::span<const core::Minimizer> minimizers,
    std::uint32_t interval_length, const core::HashFamily& hashes);

/// The reference query path's own lazy counters: per-segment votes and
/// per-trial `first_time` marks. Make one per caller, outside any timed
/// loop, and reuse it across segments.
struct ReferenceCounters {
  explicit ReferenceCounters(std::size_t num_subjects)
      : votes(num_subjects), seen(num_subjects) {}

  LazyHitCounter votes;
  LazyHitCounter seen;
};

/// The pre-overhaul query path: a fresh Sketch from the deque kernel (JEM
/// scheme) and one single-key flat().lookup per (trial, k-mer), with no
/// prefetch, voted through two LazyHitCounters. Returns exactly what
/// `mapper.map_segment(segment, scratch)` returns.
[[nodiscard]] core::MapResult map_segment_reference(
    const core::JemMapper& mapper, std::string_view segment,
    ReferenceCounters& counters);

/// Top-x by the same sketch and lookups, counted in ordered containers:
/// each trial's hit set, then every subject's vote total, ranked by votes
/// (descending, ties to the smaller id), those below min_votes dropped.
/// Returns exactly what `mapper.map_segment_topx(segment, x, scratch)`
/// returns.
[[nodiscard]] std::vector<core::MapResult> map_segment_topx_reference(
    const core::JemMapper& mapper, std::string_view segment, std::size_t x);

}  // namespace jem::oracle
