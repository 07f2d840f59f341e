// hybrid_pipeline — the complete workflow the paper motivates, end to end:
//
//   1. inputs    : a draft short-read assembly (simulated contigs with
//                  gaps) and low-coverage HiFi long reads;
//   2. mapping   : distributed JEM-mapper (S1-S4) over p simulated ranks;
//   3. scaffolds : link graph from paired end-segment hits, branch-aware
//                  chain construction;
//   4. report    : assembly-contiguity gain (scaffold count / largest /
//                  N50 in contigs) plus alignment-verified mapping quality
//                  on a sample.
//
// Run:  ./hybrid_pipeline [--genome-bp N] [--coverage C] [--ranks P]
#include <cstdint>
#include <iostream>

#include "align/identity.hpp"
#include "core/jem.hpp"
#include "core/service.hpp"
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
  std::uint64_t ranks = 4;
  std::uint64_t min_links = 2;
  std::uint64_t seed = 21;
  util::Options options;
  options.add_uint("genome-bp", genome_bp, "simulated genome length");
  options.add_double("coverage", coverage, "HiFi read coverage");
  options.add_uint("ranks", ranks, "simulated MPI ranks for the mapping");
  options.add_uint("min-links", min_links, "reads required per contig link");
  options.add_uint("seed", seed, "experiment seed");
  if (const auto exit_code = options.parse_command(
          {argv + 1, static_cast<std::size_t>(argc - 1)}, "hybrid_pipeline")) {
    return *exit_code;
  }

  // --- 1. Inputs ----------------------------------------------------------
  sim::GenomeParams genome_params;
  genome_params.length = genome_bp;
  genome_params.repeat_fraction = 0.08;
  genome_params.seed = seed;
  const std::string genome = sim::simulate_genome(genome_params);

  sim::ContigSimParams contig_params;
  contig_params.mean_length = 4000;
  contig_params.sd_length = 3500;
  contig_params.coverage_fraction = 0.9;
  contig_params.seed = seed + 1;
  const sim::SimulatedContigs contigs =
      sim::simulate_contigs(genome, contig_params);

  sim::HiFiParams read_params;
  read_params.coverage = coverage;
  read_params.seed = seed + 2;
  const sim::SimulatedReads reads =
      sim::simulate_hifi_reads(genome, read_params);

  std::cout << "inputs: " << util::human_bp(genome.size()) << " genome, "
            << contigs.contigs.size() << " contigs, " << reads.reads.size()
            << " HiFi reads (" << util::fixed(coverage, 1) << "x)\n";

  // --- 2. Distributed mapping --------------------------------------------
  // Params assembly goes through the validated ServiceConfig builder — the
  // same path `jem map` and `jem serve` use (core/service.hpp).
  const core::MapParams params =
      core::ServiceConfig::make().seed(seed).build().params;
  const core::DistributedResult mapped = core::run_distributed(
      contigs.contigs, reads.reads, params, static_cast<int>(ranks));
  std::uint64_t hits = 0;
  for (const core::SegmentMapping& m : mapped.mappings) {
    if (m.result.mapped()) ++hits;
  }
  std::cout << "mapping: " << mapped.mappings.size() << " end segments on "
            << ranks << " ranks, " << hits << " mapped; table "
            << util::with_commas(mapped.report.table_entries_max)
            << " entries/rank, allgather "
            << util::human_bp(mapped.report.sketch_bytes) << "\n";

  // --- 3. Scaffolding -----------------------------------------------------
  const scaffold::LinkGraph graph =
      scaffold::LinkGraph::from_mappings(mapped.mappings);
  scaffold::ScaffolderParams sc_params;
  sc_params.min_support = min_links;
  const scaffold::ScaffoldSet scaffolds = scaffold::build_scaffolds(
      graph, contigs.contigs.size(), sc_params);

  std::cout << "scaffolding: " << graph.edge_count() << " raw links, "
            << graph.links(min_links).size() << " trusted (>= " << min_links
            << " reads)\n";
  std::cout << "contiguity: " << contigs.contigs.size() << " contigs -> "
            << scaffolds.scaffolds.size() << " scaffolds (largest "
            << scaffolds.largest() << " contigs, N50 "
            << scaffolds.n50_contigs() << " contigs, "
            << scaffolds.multi_contig_count() << " multi-contig)\n";

  // --- 4. Verification sample ---------------------------------------------
  align::IdentityParams id_params;
  id_params.minimizer = {params.k, params.w};
  std::uint64_t verified = 0;
  std::uint64_t sampled = 0;
  for (const core::SegmentMapping& m : mapped.mappings) {
    if (!m.result.mapped() || sampled >= 100) continue;
    for (const core::EndSegment& segment : core::extract_end_segments(
             m.read, reads.reads.bases(m.read), params.segment_length)) {
      if (segment.end != m.end) continue;
      const auto identity = align::segment_identity(
          segment.bases, contigs.contigs.bases(m.result.subject), id_params);
      if (!identity.has_value()) continue;
      ++sampled;
      if (identity->identity >= 0.95) ++verified;
    }
  }
  std::cout << "verification: " << verified << "/" << sampled
            << " sampled mappings at >= 95 % alignment identity\n";
  return 0;
}
