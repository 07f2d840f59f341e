// Fig 9 — percent-identity distribution of JEM-mapper's mappings on the
// O. sativa (rice) real-data stand-in: for every mapped <read end, contig>
// pair, compute percent identity by exact banded alignment (the paper used
// BLAST) and print the histogram.
//
// The paper's claim to reproduce: the bulk of the distribution lies in
// [95 %, 100 %].
#include <iostream>
#include <vector>

#include "align/identity.hpp"
#include "driver_common.hpp"
#include "eval/report.hpp"

int main(int argc, const char** argv) {
  using namespace jem;

  std::uint64_t cap_bp = 400'000;
  std::uint64_t seed = 10;
  std::uint64_t max_segments = 600;
  util::Options options;
  options.add_uint("cap-bp", cap_bp, "max simulated genome bases");
  options.add_uint("seed", seed, "experiment seed");
  options.add_uint("max-segments", max_segments,
                   "alignment sample size (0 = all)");
  if (const auto exit_code = options.parse_command(
          {argv + 1, static_cast<std::size_t>(argc - 1)}, "fig9_identity")) {
    return *exit_code;
  }

  std::cout << "=== Fig 9: percent identity of mapped long-read ends "
               "(O. sativa) ===\n\n";

  const sim::DatasetPreset& preset =
      sim::preset_by_name("O. sativa chr 8 (real)");
  const sim::Dataset dataset = bench::make_scaled(preset, cap_bp, seed);

  core::MapParams params;
  params.seed = seed;
  const core::MappingEngine engine(dataset.contigs.contigs, params);
  const auto mappings =
      engine.run(dataset.reads.reads, core::MapRequest{}).mappings;

  align::IdentityParams id_params;
  id_params.minimizer = {params.k, params.w};

  std::vector<double> identities;
  std::uint64_t anchored = 0;
  std::uint64_t examined = 0;
  for (const core::SegmentMapping& mapping : mappings) {
    if (!mapping.result.mapped()) continue;
    if (max_segments != 0 && examined >= max_segments) break;
    ++examined;
    for (const core::EndSegment& segment : core::extract_end_segments(
             mapping.read, dataset.reads.reads.bases(mapping.read),
             params.segment_length)) {
      if (segment.end != mapping.end) continue;
      const auto result = align::segment_identity(
          segment.bases, dataset.contigs.contigs.bases(mapping.result.subject),
          id_params);
      if (!result.has_value()) continue;
      ++anchored;
      identities.push_back(100.0 * result->identity);
    }
  }

  const auto bins = eval::make_histogram(identities, 80.0, 100.0, 10);
  std::cout << eval::render_histogram(bins) << '\n';

  std::uint64_t above95 = 0;
  for (double identity : identities) {
    if (identity >= 95.0) ++above95;
  }
  std::cout << "segments examined: " << examined << ", aligned: " << anchored
            << ", identity >= 95 %: " << above95 << " ("
            << util::fixed(identities.empty()
                               ? 0.0
                               : 100.0 * static_cast<double>(above95) /
                                     static_cast<double>(identities.size()),
                           1)
            << " %)\n\n";
  std::cout << "Paper reference: the percent-identity distribution "
               "concentrates between 95 % and 100 %.\n";
  return 0;
}
