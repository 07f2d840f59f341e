// Table I — input data sets. Regenerates the paper's dataset-statistics
// table from the simulators: subject statistics (contig count/size/length
// distribution) and query statistics (read count/size/length distribution)
// for all eight inputs, at the configured scale cap.
#include <iostream>

#include "driver_common.hpp"
#include "eval/report.hpp"

int main(int argc, const char** argv) {
  using namespace jem;

  std::uint64_t cap_bp = 1'000'000;
  std::uint64_t seed = 1;
  util::Options options;
  options.add_uint("cap-bp", cap_bp, "max simulated genome bases per input");
  options.add_uint("seed", seed, "experiment seed");
  if (const auto exit_code = options.parse_command(
          {argv + 1, static_cast<std::size_t>(argc - 1)}, "table1_datasets")) {
    return *exit_code;
  }

  std::cout << "=== Table I: input data sets (scaled to <= "
            << util::human_bp(cap_bp) << " genomes) ===\n\n";

  eval::TextTable table({"Input", "Genome bp", "No. contigs",
                         "Subject bp", "Contig len (avg+-sd)", "No. reads",
                         "Query bp", "Read len (avg+-sd)"});
  for (const sim::DatasetPreset& preset : sim::table1_presets()) {
    const sim::Dataset dataset = bench::make_scaled(preset, cap_bp, seed);
    const auto contig_stats = dataset.contigs.contigs.length_stats();
    const auto read_stats = dataset.reads.reads.length_stats();
    table.add_row({
        preset.name,
        util::with_commas(dataset.genome.size()),
        util::with_commas(dataset.contigs.contigs.size()),
        util::with_commas(dataset.contigs.contigs.total_bases()),
        util::fixed(contig_stats.mean, 0) + " +- " +
            util::fixed(contig_stats.stddev, 0),
        util::with_commas(dataset.reads.reads.size()),
        util::with_commas(dataset.reads.reads.total_bases()),
        util::fixed(read_stats.mean, 0) + " +- " +
            util::fixed(read_stats.stddev, 0),
    });
  }
  std::cout << table.to_string() << '\n';

  std::cout << "Paper reference (full scale): e.g. E. coli 4,641,652 bp, "
               "365 contigs (12388 +- 13997 bp), 4,541 reads "
               "(10205 +- 3418 bp); B. splendens 339,050,970 bp, 98,160 "
               "contigs, 429,520 reads.\n"
               "Scaled rows preserve the per-base densities (subject "
               "coverage, read coverage, length distributions).\n";
  return 0;
}
