// Quickstart: the smallest end-to-end use of the JEM-mapper public API.
//
// 1. Simulate a tiny genome, a contig set (the "prior partial assembly"),
//    and HiFi long reads.
// 2. Build a MappingEngine over the contigs (Algorithm 2's subject phase).
// 3. Map every read's end segments with engine.run (a default MapRequest:
//    the paper's end segments, on this thread, in one batch) and print the
//    first few mappings plus precision/recall against the simulator's
//    ground truth.
//
// Run:  ./quickstart [--genome-bp N] [--coverage C] [--seed S]
#include <cstdint>
#include <iostream>

#include "core/jem.hpp"
#include "eval/metrics.hpp"
#include "eval/truth.hpp"
#include "sim/contigs.hpp"
#include "sim/genome.hpp"
#include "sim/hifi_reads.hpp"
#include "util/options.hpp"
#include "util/string_util.hpp"

int main(int argc, const char** argv) {
  using namespace jem;

  std::uint64_t genome_bp = 500'000;
  double coverage = 5.0;
  std::uint64_t seed = 42;
  util::Options options;
  options.add_uint("genome-bp", genome_bp, "simulated genome length");
  options.add_double("coverage", coverage, "HiFi read coverage");
  options.add_uint("seed", seed, "experiment seed");
  if (const auto exit_code = options.parse_command(
          {argv + 1, static_cast<std::size_t>(argc - 1)}, "quickstart")) {
    return *exit_code;
  }

  // --- 1. Simulate the inputs -------------------------------------------
  sim::GenomeParams genome_params;
  genome_params.length = genome_bp;
  genome_params.seed = seed;
  const std::string genome = sim::simulate_genome(genome_params);

  sim::ContigSimParams contig_params;
  contig_params.seed = seed + 1;
  const sim::SimulatedContigs contigs = sim::simulate_contigs(genome,
                                                              contig_params);

  sim::HiFiParams read_params;
  read_params.coverage = coverage;
  read_params.seed = seed + 2;
  const sim::SimulatedReads reads = sim::simulate_hifi_reads(genome,
                                                             read_params);

  std::cout << "genome   : " << util::human_bp(genome.size()) << "\n"
            << "contigs  : " << contigs.contigs.size() << " ("
            << util::human_bp(contigs.contigs.total_bases()) << ")\n"
            << "reads    : " << reads.reads.size() << " ("
            << util::human_bp(reads.reads.total_bases()) << ")\n\n";

  // --- 2. Build the engine (paper defaults: k=16, w=100, T=30, l=1000) --
  const core::MapParams params{.seed = seed};
  params.validate();
  const core::MappingEngine engine(contigs.contigs, params);
  std::cout << "sketch table: " << engine.mapper().table().size()
            << " entries across "
            << params.trials << " trials\n\n";

  // --- 3. Map all end segments ------------------------------------------
  const auto mappings = engine.run(reads.reads, core::MapRequest{}).mappings;

  std::cout << "first mappings (query  end  ->  contig  votes/trials):\n";
  for (std::size_t i = 0; i < mappings.size() && i < 8; ++i) {
    const auto& m = mappings[i];
    std::cout << "  " << reads.reads.name(m.read) << "  "
              << core::read_end_tag(m.end) << "  ->  "
              << (m.result.mapped()
                      ? std::string(contigs.contigs.name(m.result.subject))
                      : std::string("*"))
              << "  " << m.result.votes << "/" << params.trials << '\n';
  }

  // --- 4. Score against ground truth -------------------------------------
  const eval::TruthSet truth(contigs.truth, reads.truth,
                             params.segment_length,
                             static_cast<std::uint32_t>(params.k));
  const eval::QualityCounts counts = eval::evaluate(mappings, truth);
  std::cout << "\nsegments  : " << counts.segments << "\nprecision : "
            << util::fixed(100.0 * counts.precision(), 2)
            << " %\nrecall    : " << util::fixed(100.0 * counts.recall(), 2)
            << " %\n";
  return 0;
}
