// Hybrid scaffolding demo — the application the paper motivates (§I):
// long reads whose two end segments map to *different* contigs provide
// linking evidence, letting a scaffolder order and orient the short-read
// contigs. This example runs the full L2C mapping, extracts contig-pair
// links from reads whose prefix and suffix map to different contigs, builds
// a link graph, and emits scaffold chains by walking unambiguous links.
//
// Run:  ./hybrid_scaffold [--genome-bp N] [--coverage C] [--min-links L]
#include <algorithm>
#include <cstdint>
#include <iostream>
#include <vector>

#include "core/jem.hpp"
#include "scaffold/link_graph.hpp"
#include "scaffold/scaffolder.hpp"
#include "sim/contigs.hpp"
#include "sim/genome.hpp"
#include "sim/hifi_reads.hpp"
#include "util/options.hpp"
#include "util/string_util.hpp"

int main(int argc, const char** argv) {
  using namespace jem;

  std::uint64_t genome_bp = 800'000;
  double coverage = 6.0;
  std::uint64_t min_links = 2;
  std::uint64_t seed = 7;
  util::Options options;
  options.add_uint("genome-bp", genome_bp, "simulated genome length");
  options.add_double("coverage", coverage, "HiFi read coverage");
  options.add_uint("min-links", min_links,
                   "minimum supporting reads per contig link");
  options.add_uint("seed", seed, "experiment seed");
  if (const auto exit_code = options.parse_command(
          {argv + 1, static_cast<std::size_t>(argc - 1)}, "hybrid_scaffold")) {
    return *exit_code;
  }

  // Simulate a fragmented assembly: shortish contigs with real gaps, which
  // is exactly where long-read links add value.
  sim::GenomeParams genome_params;
  genome_params.length = genome_bp;
  genome_params.seed = seed;
  const std::string genome = sim::simulate_genome(genome_params);

  sim::ContigSimParams contig_params;
  contig_params.mean_length = 5000;
  contig_params.sd_length = 4000;
  contig_params.coverage_fraction = 0.88;
  contig_params.seed = seed + 1;
  const sim::SimulatedContigs contigs =
      sim::simulate_contigs(genome, contig_params);

  sim::HiFiParams read_params;
  read_params.coverage = coverage;
  read_params.seed = seed + 2;
  const sim::SimulatedReads reads =
      sim::simulate_hifi_reads(genome, read_params);

  std::cout << "contigs: " << contigs.contigs.size()
            << ", reads: " << reads.reads.size() << "\n";

  // Map all end segments (a default MapRequest: end segments, one batch).
  core::MapParams params;
  params.seed = seed;
  const core::MappingEngine engine(contigs.contigs, params);
  const auto mappings = engine.run(reads.reads, core::MapRequest{}).mappings;

  // A read whose prefix and suffix map to different contigs links them.
  const scaffold::LinkGraph graph = scaffold::LinkGraph::from_mappings(mappings);
  const std::vector<scaffold::Link> links = graph.links(min_links);
  std::cout << "contig links with >= " << min_links
            << " supporting reads: " << links.size() << "\n";

  // Validate links against ground truth: a correct link joins two contigs
  // whose genome span could actually be bridged by one read (the linked
  // ends lie within a maximum read length of each other). A 10 Kbp read
  // routinely skips over small intervening contigs — that is the value of
  // the link, not an error.
  const std::uint64_t max_span = read_params.max_length;
  std::uint64_t correct = 0;
  for (const scaffold::Link& link : links) {
    const auto& ta = contigs.truth[link.a];
    const auto& tb = contigs.truth[link.b];
    const std::uint64_t span = std::max(ta.end, tb.end) -
                               std::min(ta.begin, tb.begin);
    if (span <= max_span) ++correct;
  }
  std::cout << "links bridgeable by a single read (span <= "
            << util::human_bp(max_span) << "): " << correct << " / "
            << links.size() << " ("
            << util::fixed(links.empty() ? 0.0
                                         : 100.0 * static_cast<double>(correct) /
                                               static_cast<double>(links.size()),
                           1)
            << " %)\n";

  // Build scaffolds with the library scaffolder (branch-aware chain walk).
  scaffold::ScaffolderParams sc_params;
  sc_params.min_support = min_links;
  const scaffold::ScaffoldSet scaffolds =
      scaffold::build_scaffolds(graph, contigs.contigs.size(), sc_params);
  std::cout << "scaffolds: " << scaffolds.scaffolds.size() << " total, "
            << scaffolds.multi_contig_count() << " multi-contig; largest "
            << scaffolds.largest() << " contigs; N50 "
            << scaffolds.n50_contigs() << " contigs\n";
  return 0;
}
