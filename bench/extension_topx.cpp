// Extension — top-x hit reporting (paper §IV-C: "Note that if we are to
// extend our method to report a fixed number, say top x hits per read, then
// several of the missing contig hits could possibly be recovered").
//
// This driver implements that extension and quantifies it: recall@x for
// x = 1..5 on the two repeat-rich presets where top-1 recall is lowest.
#include <iostream>

#include "driver_common.hpp"
#include "eval/report.hpp"

int main(int argc, const char** argv) {
  using namespace jem;

  std::uint64_t cap_bp = 800'000;
  std::uint64_t seed = 14;
  util::Options options;
  options.add_uint("cap-bp", cap_bp, "max simulated genome bases per input");
  options.add_uint("seed", seed, "experiment seed");
  if (const auto exit_code = options.parse_command(
          {argv + 1, static_cast<std::size_t>(argc - 1)}, "extension_topx")) {
    return *exit_code;
  }

  std::cout << "=== Extension (paper SIV-C): recall at top-x hits ===\n\n";

  core::MapParams params;
  params.seed = seed;

  eval::TextTable table(
      {"Input", "recall@1 %", "recall@2 %", "recall@3 %", "recall@5 %"});
  for (const char* name : {"Human chr 7", "Human chr 8", "C. elegans"}) {
    const sim::Dataset dataset =
        bench::make_scaled(sim::preset_by_name(name), cap_bp, seed);
    const core::MappingEngine engine(dataset.contigs.contigs, params);
    const eval::TruthSet truth(dataset.contigs.truth, dataset.reads.truth,
                               params.segment_length,
                               static_cast<std::uint32_t>(params.k));

    core::MapRequest request;
    request.mode = core::MapMode::kTopX;
    request.top_x = 5;
    const auto topx = engine.run(dataset.reads.reads, request).topx;
    std::vector<std::string> row{name};
    for (std::size_t x : {1u, 2u, 3u, 5u}) {
      // Truncate the candidate lists to x and evaluate.
      std::vector<core::SegmentTopX> truncated = topx;
      for (auto& mapping : truncated) {
        if (mapping.hits.size() > x) mapping.hits.resize(x);
      }
      const eval::TopXRecall recall = eval::evaluate_topx(truncated, truth);
      row.push_back(bench::pct(recall.recall()));
    }
    table.add_row(row);
  }
  std::cout << table.to_string() << '\n';
  std::cout << "Expected shape: recall rises with x — the true contig is "
               "usually among the top few candidates even when a repeat "
               "copy wins the top-1 vote.\n";
  return 0;
}
