// Fig 7 — (a) runtime breakdown by algorithm step at p = 16, and
// (b) querying throughput (queries/second) as a function of p.
//
// The paper's claims to reproduce: query processing dominates the runtime
// (sketching queries + table lookup + reporting), and query throughput
// scales almost linearly with p, roughly independent of the input.
#include <iostream>

#include "driver_common.hpp"
#include "eval/report.hpp"

int main(int argc, const char** argv) {
  using namespace jem;

  std::uint64_t cap_bp = 2'000'000;
  std::uint64_t seed = 8;
  util::Options options;
  options.add_uint("cap-bp", cap_bp, "max simulated genome bases per input");
  options.add_uint("seed", seed, "experiment seed");
  if (const auto exit_code = options.parse_command(
          {argv + 1, static_cast<std::size_t>(argc - 1)}, "fig7_breakdown")) {
    return *exit_code;
  }

  const std::vector<std::string> inputs{"C. elegans", "Human chr 7",
                                        "B. splendens",
                                        "O. sativa chr 8 (real)"};
  core::MapParams params;
  params.seed = seed;

  std::cout << "=== Fig 7a: runtime breakdown by step at p = 16 ===\n\n";
  eval::TextTable breakdown({"Input", "load %", "sketch-subj %",
                             "allgather %", "build-global %",
                             "map-queries %", "total s"});
  std::vector<sim::Dataset> datasets;
  for (const std::string& name : inputs) {
    datasets.push_back(
        bench::make_scaled(sim::preset_by_name(name), cap_bp, seed));
    const sim::Dataset& dataset = datasets.back();
    const core::DistributedResult result = core::run_staged(
        dataset.contigs.contigs, dataset.reads.reads, params, 16);
    const auto& r = result.report;
    const double total = r.total_s();
    const auto share = [&](double x) {
      return util::fixed(100.0 * x / total, 1);
    };
    breakdown.add_row({name, share(r.load_s), share(r.sketch_subjects_s),
                       share(r.allgather_s), share(r.build_global_s),
                       share(r.map_queries_s), util::fixed(total, 3)});
  }
  std::cout << breakdown.to_string() << '\n';
  std::cout << "Paper reference: query processing (sketch queries + search + "
               "report) dominates the runtime at p = 16.\n\n";

  std::cout << "=== Fig 7b: querying throughput (end segments / s of S4 "
               "time) vs p ===\n\n";
  eval::TextTable throughput({"Input", "p=4", "p=8", "p=16", "p=32", "p=64"});
  for (std::size_t i = 0; i < inputs.size(); ++i) {
    const sim::Dataset& dataset = datasets[i];
    std::vector<std::string> row{inputs[i]};
    for (int ranks : {4, 8, 16, 32, 64}) {
      const core::DistributedResult result = core::run_staged(
          dataset.contigs.contigs, dataset.reads.reads, params, ranks);
      row.push_back(util::fixed(result.report.query_throughput(), 0));
    }
    throughput.add_row(row);
  }
  std::cout << throughput.to_string() << '\n';
  std::cout << "Paper reference: throughput grows almost linearly with p and "
               "is nearly input-independent (except the real O. sativa input "
               "with its longer reads).\n";
  return 0;
}
