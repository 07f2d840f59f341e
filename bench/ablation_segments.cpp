// Ablation — end-segment mapping vs whole-read mapping (paper §III-B1).
//
// The paper argues that sketching only the two ℓ-length end segments of a
// long read (a) improves quality by avoiding sketches from interior regions
// and (b) reduces work. This driver maps the same reads both ways and
// reports quality, query time, and per-read sketch work.
#include <iostream>

#include "driver_common.hpp"
#include "eval/report.hpp"

int main(int argc, const char** argv) {
  using namespace jem;

  std::uint64_t cap_bp = 600'000;
  std::uint64_t seed = 12;
  util::Options options;
  options.add_uint("cap-bp", cap_bp, "max simulated genome bases");
  options.add_uint("seed", seed, "experiment seed");
  if (const auto exit_code = options.parse_command(
          {argv + 1, static_cast<std::size_t>(argc - 1)}, "ablation_segments")) {
    return *exit_code;
  }

  std::cout << "=== Ablation: end-segment mapping vs whole-read mapping ===\n\n";

  const sim::DatasetPreset& preset = sim::preset_by_name("C. elegans");
  const sim::Dataset dataset = bench::make_scaled(preset, cap_bp, seed);

  eval::TextTable table({"Mode", "Precision %", "Recall %", "Query s",
                         "Segments"});

  // End-segment mode: the paper's configuration.
  {
    core::MapParams params;
    params.seed = seed;
    const core::MappingEngine engine(dataset.contigs.contigs, params);
    util::WallTimer timer;
    const auto mappings =
        engine.run(dataset.reads.reads, core::MapRequest{}).mappings;
    const double map_s = timer.elapsed_s();
    const eval::TruthSet truth(dataset.contigs.truth, dataset.reads.truth,
                               params.segment_length,
                               static_cast<std::uint32_t>(params.k));
    const auto counts = eval::evaluate(mappings, truth);
    table.add_row({"end segments (l=1000)", bench::pct(counts.precision()),
                   bench::pct(counts.recall()), util::fixed(map_s, 2),
                   std::to_string(mappings.size())});
  }

  // Whole-read mode: segment length larger than any read, so each read is
  // sketched in full as a single query (and the truth interval is the whole
  // read span).
  {
    core::MapParams params;
    params.seed = seed;
    params.segment_length = 40'000;
    const core::MappingEngine engine(dataset.contigs.contigs, params);
    util::WallTimer timer;
    const auto mappings =
        engine.run(dataset.reads.reads, core::MapRequest{}).mappings;
    const double map_s = timer.elapsed_s();
    const eval::TruthSet truth(dataset.contigs.truth, dataset.reads.truth,
                               params.segment_length,
                               static_cast<std::uint32_t>(params.k));
    const auto counts = eval::evaluate(mappings, truth);
    table.add_row({"whole read", bench::pct(counts.precision()),
                   bench::pct(counts.recall()), util::fixed(map_s, 2),
                   std::to_string(mappings.size())});
  }

  std::cout << table.to_string() << '\n';
  std::cout << "Expected shape (paper §III-B1): end-segment mapping does "
               "less query work per read; whole-read mapping wastes sketch "
               "hits on interior regions, diluting the vote toward any one "
               "contig when reads span several. Note the two rows use "
               "different truth definitions (per-end vs per-read), so quality "
               "is comparable in shape, not in exact value.\n";
  return 0;
}
