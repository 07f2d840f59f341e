// Ablation — the reporting threshold min_votes: how the precision/recall
// tradeoff moves as the required number of supporting trials grows. The
// paper reports the unfiltered best hit (min_votes = 1); this sweep shows
// how much precision a downstream pipeline can buy by requiring stronger
// agreement across trials, and what it costs in recall.
#include <iostream>

#include "driver_common.hpp"
#include "eval/report.hpp"

int main(int argc, const char** argv) {
  using namespace jem;

  std::uint64_t cap_bp = 800'000;
  std::uint64_t seed = 17;
  util::Options options;
  options.add_uint("cap-bp", cap_bp, "max simulated genome bases");
  options.add_uint("seed", seed, "experiment seed");
  if (const auto exit_code = options.parse_command(
          {argv + 1, static_cast<std::size_t>(argc - 1)}, "ablation_minvotes")) {
    return *exit_code;
  }

  std::cout << "=== Ablation: reporting threshold min_votes "
               "(Human chr 7, T = 30) ===\n\n";

  const sim::Dataset dataset =
      bench::make_scaled(sim::preset_by_name("Human chr 7"), cap_bp, seed);

  eval::TextTable table({"min_votes", "Precision %", "Recall %", "Mapped %"});
  for (std::uint32_t min_votes : {1u, 2u, 5u, 10u, 15u, 20u, 25u}) {
    core::MapParams params;
    params.seed = seed;
    params.min_votes = min_votes;
    const bench::QualityResult result =
        bench::run_jem_quality(dataset, params, core::SketchScheme::kJem);
    table.add_row(
        {std::to_string(min_votes), bench::pct(result.counts.precision()),
         bench::pct(result.counts.recall()),
         bench::pct(static_cast<double>(result.counts.mapped) /
                    static_cast<double>(result.counts.segments))});
  }
  std::cout << table.to_string() << '\n';
  std::cout << "Expected shape: precision rises monotonically with the "
               "threshold while recall falls — weak single-trial hits are "
               "where most false positives live.\n";
  return 0;
}
