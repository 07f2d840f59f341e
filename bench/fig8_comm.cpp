// Fig 8 — computation vs communication fraction for Human chr 7 and
// B. splendens as p grows from 4 to 64.
//
// The paper's claim to reproduce: the communication share rises with p but
// stays well under 25 % up to p = 64.
#include <iostream>

#include "driver_common.hpp"
#include "eval/report.hpp"

int main(int argc, const char** argv) {
  using namespace jem;

  std::uint64_t cap_bp = 2'000'000;
  std::uint64_t seed = 9;
  util::Options options;
  options.add_uint("cap-bp", cap_bp, "max simulated genome bases per input");
  options.add_uint("seed", seed, "experiment seed");
  if (const auto exit_code = options.parse_command(
          {argv + 1, static_cast<std::size_t>(argc - 1)}, "fig8_comm")) {
    return *exit_code;
  }

  std::cout << "=== Fig 8: computation vs communication time fractions ===\n\n";

  core::MapParams params;
  params.seed = seed;

  for (const char* name : {"Human chr 7", "B. splendens"}) {
    const sim::Dataset dataset =
        bench::make_scaled(sim::preset_by_name(name), cap_bp, seed);
    std::cout << name << ":\n";
    eval::TextTable table({"p", "compute %", "comm %", "total s",
                           "allgather bytes"});
    for (int ranks : {4, 8, 16, 32, 64}) {
      const core::DistributedResult result = core::run_staged(
          dataset.contigs.contigs, dataset.reads.reads, params, ranks);
      const auto& r = result.report;
      const double total = r.total_s();
      table.add_row({std::to_string(ranks),
                     util::fixed(100.0 * r.compute_s() / total, 1),
                     util::fixed(100.0 * r.allgather_s / total, 1),
                     util::fixed(total, 3),
                     util::with_commas(r.sketch_bytes)});
    }
    std::cout << table.to_string() << '\n';
  }

  std::cout << "Paper reference: communication overhead increases with p but "
               "stays well under 25 % through p = 64 on both inputs.\n";
  return 0;
}
