// Smoke tests for the public API surface: the umbrella header must expose
// everything a downstream user needs, and the derived-parameter helpers
// must stay consistent.
#include "core/jem.hpp"

#include <gtest/gtest.h>

#include "baseline/mashmap_like.hpp"

namespace jem {
namespace {

TEST(PublicApi, UmbrellaHeaderCoversTheQuickstartFlow) {
  // Everything below comes in via core/jem.hpp alone.
  io::SequenceSet contigs;
  contigs.add("c0", std::string(3000, 'A') + std::string(3000, 'C'));

  core::MapParams params;
  params.w = 10;
  params.trials = 4;
  const core::MappingEngine engine(contigs, params);

  io::SequenceSet reads;
  reads.add("r0", std::string(2500, 'A'));
  const auto mappings = engine.run(reads, core::MapRequest{}).mappings;
  ASSERT_EQ(mappings.size(), 2u);
  const auto lines = engine.mapper().to_mapping_lines(reads, mappings);
  EXPECT_EQ(lines.size(), 2u);

  const core::DistributedResult distributed =
      core::run_distributed(contigs, reads, params, 2);
  EXPECT_EQ(distributed.mappings.size(), 2u);
}

TEST(PublicApi, MashmapWindowDerivesFromSketchSize) {
  baseline::MashmapParams params;
  params.segment_length = 1000;
  params.sketch_size = 200;
  // w ~ 2l/s - 1 = 9.
  EXPECT_EQ(params.minimizer().w, 9);
  params.sketch_size = 100;
  EXPECT_EQ(params.minimizer().w, 19);
  params.sketch_size = 10'000;  // denser than one-per-kmer: clamps to 1
  EXPECT_EQ(params.minimizer().w, 1);
  EXPECT_EQ(params.minimizer().k, params.k);
}

TEST(PublicApi, DefaultParamsMatchThePaper) {
  const core::MapParams params;
  EXPECT_EQ(params.k, 16);
  EXPECT_EQ(params.w, 100);
  EXPECT_EQ(params.trials, 30);
  EXPECT_EQ(params.segment_length, 1000u);
  EXPECT_EQ(params.ordering, core::MinimizerOrdering::kLexicographic);
}

}  // namespace
}  // namespace jem
