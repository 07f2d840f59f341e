// Ablation — minimizer ordering: lexicographic (the paper's choice,
// "consistent with previous works") vs random-hash ordering (Marçais et al.
// 2017, the paper's ref [24] and its future-work item i). Lexicographic
// ordering over-selects low-complexity k-mers (poly-A prefixes), inflating
// density on AT-rich sequence; hash ordering is bias-free.
#include <iostream>

#include "driver_common.hpp"
#include "eval/report.hpp"

int main(int argc, const char** argv) {
  using namespace jem;

  std::uint64_t cap_bp = 600'000;
  std::uint64_t seed = 16;
  util::Options options;
  options.add_uint("cap-bp", cap_bp, "max simulated genome bases");
  options.add_uint("seed", seed, "experiment seed");
  if (const auto exit_code = options.parse_command(
          {argv + 1, static_cast<std::size_t>(argc - 1)}, "ablation_ordering")) {
    return *exit_code;
  }

  std::cout << "=== Ablation: lexicographic vs random-hash minimizer "
               "ordering ===\n\n";

  eval::TextTable table({"Input", "Ordering", "Precision %", "Recall %",
                         "Minimizer density", "Query s"});
  for (const char* name : {"C. elegans", "Human chr 7"}) {
    const sim::Dataset dataset =
        bench::make_scaled(sim::preset_by_name(name), cap_bp, seed);
    for (const auto ordering : {core::MinimizerOrdering::kLexicographic,
                                core::MinimizerOrdering::kRandomHash}) {
      core::MapParams params;
      params.seed = seed;
      params.ordering = ordering;

      // Density over the genome (positions per k-mer site).
      const auto minimizers = core::minimizer_scan(
          dataset.genome, {params.k, params.w, ordering});
      const double density =
          static_cast<double>(minimizers.size()) /
          static_cast<double>(dataset.genome.size() - params.k + 1);

      const core::MappingEngine engine(dataset.contigs.contigs, params);
      util::WallTimer timer;
      const auto mappings =
          engine.run(dataset.reads.reads, core::MapRequest{}).mappings;
      const double map_s = timer.elapsed_s();
      const eval::TruthSet truth(dataset.contigs.truth, dataset.reads.truth,
                                 params.segment_length,
                                 static_cast<std::uint32_t>(params.k));
      const auto counts = eval::evaluate(mappings, truth);
      table.add_row({name,
                     ordering == core::MinimizerOrdering::kLexicographic
                         ? "lexicographic"
                         : "random-hash",
                     bench::pct(counts.precision()),
                     bench::pct(counts.recall()),
                     util::fixed(density, 4), util::fixed(map_s, 2)});
    }
  }
  std::cout << table.to_string() << '\n';
  std::cout << "Theoretical density for w = 100: "
            << util::fixed(core::expected_minimizer_density(100), 4)
            << ". Expected shape: random-hash ordering lands closer to the "
               "theoretical density and matches or improves quality — the "
               "optimization the paper's future-work item (i) anticipates.\n";
  return 0;
}
