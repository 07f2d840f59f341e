// Shared plumbing for the table/figure drivers: scaled dataset generation
// and the quality-evaluation runner both Fig 5 and Fig 6 use.
//
// Every driver accepts --cap-bp (maximum simulated genome size; presets
// larger than the cap are scaled down, densities preserved — see
// EXPERIMENTS.md) and --seed. The drivers print the paper's reference
// numbers next to the measured ones wherever the paper states them.
#pragma once

#include <algorithm>
#include <cstdint>
#include <iostream>
#include <string>

#include "baseline/mashmap_like.hpp"
#include "core/jem.hpp"
#include "eval/metrics.hpp"
#include "eval/truth.hpp"
#include "sim/presets.hpp"
#include "util/options.hpp"
#include "util/string_util.hpp"
#include "util/timer.hpp"

namespace jem::bench {

/// Generates a preset capped at `cap_bp` simulated genome bases.
inline sim::Dataset make_scaled(const sim::DatasetPreset& preset,
                                std::uint64_t cap_bp, std::uint64_t seed) {
  const double scale = std::min(
      1.0, static_cast<double>(cap_bp) /
               static_cast<double>(preset.genome_length));
  return sim::generate_dataset(preset, scale, seed);
}

struct QualityResult {
  eval::QualityCounts counts;
  double build_s = 0.0;
  double map_s = 0.0;
};

/// Maps a dataset with JEM-mapper (any scheme) through MappingEngine and
/// scores it.
inline QualityResult run_jem_quality(const sim::Dataset& dataset,
                                     const core::MapParams& params,
                                     core::SketchScheme scheme) {
  QualityResult result;
  util::WallTimer build_timer;
  const core::MappingEngine engine(dataset.contigs.contigs, params, scheme);
  result.build_s = build_timer.elapsed_s();

  util::WallTimer map_timer;
  const auto mappings =
      engine.run(dataset.reads.reads, core::MapRequest{}).mappings;
  result.map_s = map_timer.elapsed_s();

  const eval::TruthSet truth(dataset.contigs.truth, dataset.reads.truth,
                             params.segment_length,
                             static_cast<std::uint32_t>(params.k));
  result.counts = eval::evaluate(mappings, truth);
  return result;
}

/// Runs the Mashmap-like baseline over a dataset and scores it.
inline QualityResult run_mashmap_quality(const sim::Dataset& dataset,
                                         const core::MapParams& params) {
  QualityResult result;
  baseline::MashmapParams mm_params;
  mm_params.k = params.k;
  mm_params.segment_length = params.segment_length;
  mm_params.segment_length = params.segment_length;

  util::WallTimer build_timer;
  const baseline::MashmapLikeMapper mapper(dataset.contigs.contigs,
                                           mm_params);
  result.build_s = build_timer.elapsed_s();

  util::WallTimer map_timer;
  const auto mappings = mapper.map_reads(dataset.reads.reads);
  result.map_s = map_timer.elapsed_s();

  const eval::TruthSet truth(dataset.contigs.truth, dataset.reads.truth,
                             params.segment_length,
                             static_cast<std::uint32_t>(params.k));
  result.counts = eval::evaluate(mappings, truth);
  return result;
}

/// Percentage with two decimals.
inline std::string pct(double fraction) {
  return util::fixed(100.0 * fraction, 2);
}

}  // namespace jem::bench
