// Parameter study: how the JEM-mapper quality responds to its three knobs —
// trials T, minimizer window w, and end-segment length ℓ — on one simulated
// genome. A compact version of the paper's Fig 6 exploration plus the
// window/segment ablations DESIGN.md calls out, exposed through the public
// API so users can rerun it on their own parameter ranges.
//
// Run:  ./parameter_study [--genome-bp N] [--seed S]
#include <cstdint>
#include <iostream>

#include "core/jem.hpp"
#include "core/service.hpp"
#include "eval/metrics.hpp"
#include "eval/report.hpp"
#include "eval/truth.hpp"
#include "sim/contigs.hpp"
#include "sim/genome.hpp"
#include "sim/hifi_reads.hpp"
#include "util/options.hpp"
#include "util/string_util.hpp"
#include "util/timer.hpp"

namespace {

struct Inputs {
  jem::sim::SimulatedContigs contigs;
  jem::sim::SimulatedReads reads;
};

Inputs make_inputs(std::uint64_t genome_bp, std::uint64_t seed) {
  jem::sim::GenomeParams genome_params;
  genome_params.length = genome_bp;
  genome_params.repeat_fraction = 0.10;
  genome_params.seed = seed;
  const std::string genome = jem::sim::simulate_genome(genome_params);

  jem::sim::ContigSimParams contig_params;
  contig_params.seed = seed + 1;
  jem::sim::HiFiParams read_params;
  read_params.coverage = 4.0;
  read_params.seed = seed + 2;
  return {jem::sim::simulate_contigs(genome, contig_params),
          jem::sim::simulate_hifi_reads(genome, read_params)};
}

void run_sweep(const Inputs& inputs, const std::string& title,
               const std::vector<jem::core::MapParams>& configs,
               const std::vector<std::string>& labels) {
  using namespace jem;
  eval::TextTable table({title, "Precision %", "Recall %", "Map time s"});
  for (std::size_t i = 0; i < configs.size(); ++i) {
    const core::MapParams& params = configs[i];
    const eval::TruthSet truth(inputs.contigs.truth, inputs.reads.truth,
                               params.segment_length,
                               static_cast<std::uint32_t>(params.k));
    const core::MappingEngine engine(inputs.contigs.contigs, params);
    // A default MapRequest: end segments, on this thread, in one batch.
    util::WallTimer timer;
    const auto mappings =
        engine.run(inputs.reads.reads, core::MapRequest{}).mappings;
    const double map_s = timer.elapsed_s();
    const eval::QualityCounts counts = eval::evaluate(mappings, truth);
    table.add_row({labels[i], util::fixed(100.0 * counts.precision(), 2),
                   util::fixed(100.0 * counts.recall(), 2),
                   util::fixed(map_s, 2)});
  }
  std::cout << table.to_string() << '\n';
}

}  // namespace

int main(int argc, const char** argv) {
  using namespace jem;

  std::uint64_t genome_bp = 600'000;
  std::uint64_t seed = 11;
  util::Options options;
  options.add_uint("genome-bp", genome_bp, "simulated genome length");
  options.add_uint("seed", seed, "experiment seed");
  if (const auto exit_code = options.parse_command(
          {argv + 1, static_cast<std::size_t>(argc - 1)}, "parameter_study")) {
    return *exit_code;
  }

  const Inputs inputs = make_inputs(genome_bp, seed);
  std::cout << "inputs: " << inputs.contigs.contigs.size() << " contigs, "
            << inputs.reads.reads.size() << " reads\n\n";

  // Every swept configuration is assembled by the validated ServiceConfig
  // builder (core/service.hpp) — the one params path all front ends share.
  const auto with_seed = [&] { return core::ServiceConfig::make().seed(seed); };

  {
    std::vector<core::MapParams> configs;
    std::vector<std::string> labels;
    for (std::uint64_t trials : {5u, 10u, 20u, 30u, 50u}) {
      configs.push_back(with_seed().trials(trials).build().params);
      labels.push_back("T=" + std::to_string(trials));
    }
    run_sweep(inputs, "Trials", configs, labels);
  }
  {
    std::vector<core::MapParams> configs;
    std::vector<std::string> labels;
    for (std::uint64_t w : {20u, 50u, 100u, 200u}) {
      configs.push_back(with_seed().window(w).build().params);
      labels.push_back("w=" + std::to_string(w));
    }
    run_sweep(inputs, "Window", configs, labels);
  }
  {
    std::vector<core::MapParams> configs;
    std::vector<std::string> labels;
    for (std::uint64_t ell : {500u, 1000u, 2000u}) {
      configs.push_back(with_seed().segment_length(ell).build().params);
      labels.push_back("l=" + std::to_string(ell));
    }
    run_sweep(inputs, "Segment", configs, labels);
  }
  return 0;
}
