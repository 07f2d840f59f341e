// Robustness — read error rate. The paper's premise (§I) is that HiFi reads
// (99.9 % accuracy) make sketch-based mapping viable where first-generation
// long reads (11-14 % error, PacBio CLR / ONT) would not: a 16-mer survives
// HiFi errors with probability ~0.98 but an 12 %-error read corrupts almost
// every k-mer. This sweep quantifies exactly that cliff for JEM-mapper.
#include <iostream>

#include "driver_common.hpp"
#include "eval/report.hpp"

int main(int argc, const char** argv) {
  using namespace jem;

  std::uint64_t genome_bp = 600'000;
  std::uint64_t seed = 23;
  util::Options options;
  options.add_uint("genome-bp", genome_bp, "simulated genome length");
  options.add_uint("seed", seed, "experiment seed");
  if (const auto exit_code = options.parse_command(
          {argv + 1, static_cast<std::size_t>(argc - 1)}, "robustness_error")) {
    return *exit_code;
  }

  std::cout << "=== Robustness: read error rate (HiFi vs first-generation "
               "long reads) ===\n\n";

  sim::GenomeParams genome_params;
  genome_params.length = genome_bp;
  genome_params.seed = seed;
  const std::string genome = sim::simulate_genome(genome_params);

  sim::ContigSimParams contig_params;
  contig_params.seed = seed + 1;
  const sim::SimulatedContigs contigs =
      sim::simulate_contigs(genome, contig_params);

  core::MapParams params;
  params.seed = seed;
  const core::MappingEngine engine(contigs.contigs, params);

  eval::TextTable table({"Error %", "Technology class", "Precision %",
                         "Recall %", "Mapped %"});
  const struct {
    double rate;
    const char* label;
  } kRows[] = {
      {0.000, "perfect"},
      {0.001, "PacBio HiFi (99.9%)"},
      {0.01, "corrected CLR (~99%)"},
      {0.05, "ONT duplex-era (~95%)"},
      {0.12, "PacBio CLR / ONT (88%)"},
  };
  for (const auto& row : kRows) {
    sim::HiFiParams read_params;
    read_params.coverage = 4.0;
    read_params.error_rate = row.rate;
    read_params.seed = seed + 2;  // same sampling, different error draws
    const sim::SimulatedReads reads =
        sim::simulate_hifi_reads(genome, read_params);

    const auto mappings = engine.run(reads.reads, core::MapRequest{}).mappings;
    const eval::TruthSet truth(contigs.truth, reads.truth,
                               params.segment_length,
                               static_cast<std::uint32_t>(params.k));
    const eval::QualityCounts counts = eval::evaluate(mappings, truth);
    table.add_row({util::fixed(100.0 * row.rate, 1), row.label,
                   bench::pct(counts.precision()), bench::pct(counts.recall()),
                   bench::pct(static_cast<double>(counts.mapped) /
                              static_cast<double>(counts.segments))});
  }
  std::cout << table.to_string() << '\n';
  std::cout << "Expected shape: quality is flat through HiFi-grade error "
               "and collapses toward the first-generation error rates — "
               "the k-mer survival cliff that motivates the paper's focus "
               "on high-fidelity reads.\n";
  return 0;
}
