#include "baseline/minimap_like.hpp"

#include <gtest/gtest.h>

#include <string>

#include "core/dna.hpp"
#include "sim/hifi_reads.hpp"
#include "util/prng.hpp"

namespace jem::baseline {
namespace {

std::string random_dna(util::Xoshiro256ss& rng, std::size_t length) {
  std::string seq(length, 'A');
  for (char& c : seq) {
    c = core::code_base(static_cast<std::uint8_t>(rng.bounded(4)));
  }
  return seq;
}

class MinimapLikeTest : public ::testing::Test {
 protected:
  void SetUp() override {
    util::Xoshiro256ss rng(27182);
    genome_ = random_dna(rng, 60'000);
    for (int i = 0; i < 10; ++i) {
      subjects_.add("contig_" + std::to_string(i),
                    genome_.substr(static_cast<std::size_t>(i) * 6000, 6000));
    }
  }

  std::string genome_;
  io::SequenceSet subjects_;
  MinimapParams params_;
};

TEST_F(MinimapLikeTest, IndexesSubjects) {
  const MinimapLikeMapper mapper(subjects_, params_);
  // w=10 -> density ~2/11: ~10900 postings over 60 Kbp.
  EXPECT_GT(mapper.index_postings(), 6000u);
  EXPECT_LT(mapper.index_postings(), 16000u);
}

TEST_F(MinimapLikeTest, MapsExactSegmentToItsContig) {
  const MinimapLikeMapper mapper(subjects_, params_);
  for (int contig = 0; contig < 10; ++contig) {
    const std::string segment =
        genome_.substr(static_cast<std::size_t>(contig) * 6000 + 2500, 1000);
    const ChainHit hit = mapper.map_segment(segment);
    ASSERT_TRUE(hit.mapped()) << "contig " << contig;
    EXPECT_EQ(hit.subject, static_cast<io::SeqId>(contig));
    EXPECT_FALSE(hit.reverse);
    EXPECT_GE(hit.anchors, params_.min_chain_anchors);
  }
}

TEST_F(MinimapLikeTest, ChainSpanMatchesPlacement) {
  const MinimapLikeMapper mapper(subjects_, params_);
  const std::string segment = genome_.substr(4 * 6000 + 2500, 1000);
  const ChainHit hit = mapper.map_segment(segment);
  ASSERT_TRUE(hit.mapped());
  EXPECT_EQ(hit.subject, 4u);
  EXPECT_NEAR(static_cast<double>(hit.subject_begin), 2500.0, 120.0);
  EXPECT_NEAR(static_cast<double>(hit.subject_end), 3500.0, 120.0);
}

TEST_F(MinimapLikeTest, DetectsReverseStrand) {
  const MinimapLikeMapper mapper(subjects_, params_);
  const std::string segment =
      core::reverse_complement(genome_.substr(2 * 6000 + 1500, 1000));
  const ChainHit hit = mapper.map_segment(segment);
  ASSERT_TRUE(hit.mapped());
  EXPECT_EQ(hit.subject, 2u);
  EXPECT_TRUE(hit.reverse);
}

TEST_F(MinimapLikeTest, ToleratesHiFiErrors) {
  const MinimapLikeMapper mapper(subjects_, params_);
  sim::HiFiParams error_model;
  error_model.error_rate = 0.001;
  const std::string segment = sim::apply_hifi_errors(
      genome_.substr(7 * 6000 + 1000, 1000), error_model, 5);
  const ChainHit hit = mapper.map_segment(segment);
  ASSERT_TRUE(hit.mapped());
  EXPECT_EQ(hit.subject, 7u);
}

TEST_F(MinimapLikeTest, RandomSegmentDoesNotMap) {
  const MinimapLikeMapper mapper(subjects_, params_);
  util::Xoshiro256ss rng(141421);
  const ChainHit hit = mapper.map_segment(random_dna(rng, 1000));
  EXPECT_FALSE(hit.mapped());
}

TEST_F(MinimapLikeTest, EmptyOrTinySegmentDoesNotMap) {
  const MinimapLikeMapper mapper(subjects_, params_);
  EXPECT_FALSE(mapper.map_segment("").mapped());
  EXPECT_FALSE(mapper.map_segment("ACGTACGT").mapped());
}

TEST_F(MinimapLikeTest, MinChainAnchorsFilters) {
  MinimapParams strict = params_;
  strict.min_chain_anchors = 100'000;
  const MinimapLikeMapper mapper(subjects_, strict);
  const std::string segment = genome_.substr(2500, 1000);
  EXPECT_FALSE(mapper.map_segment(segment).mapped());
}

TEST_F(MinimapLikeTest, SegmentSpanningContigsPicksLargerHalf) {
  const MinimapLikeMapper mapper(subjects_, params_);
  const std::string segment = genome_.substr(6000 - 700, 1000);
  const ChainHit hit = mapper.map_segment(segment);
  ASSERT_TRUE(hit.mapped());
  EXPECT_EQ(hit.subject, 0u);  // 700 bp in contig 0 vs 300 bp in contig 1
}

TEST_F(MinimapLikeTest, MapReadsSharesOutputShape) {
  const MinimapLikeMapper mapper(subjects_, params_);
  io::SequenceSet reads;
  reads.add("r0", genome_.substr(1000, 8000));
  const auto mappings = mapper.map_reads(reads);
  ASSERT_EQ(mappings.size(), 2u);
  EXPECT_EQ(mappings[0].end, core::ReadEnd::kPrefix);
  EXPECT_EQ(mappings[1].end, core::ReadEnd::kSuffix);
  EXPECT_TRUE(mappings[0].result.mapped());
  EXPECT_TRUE(mappings[1].result.mapped());
}

TEST_F(MinimapLikeTest, PafRecordsCarryChainCoordinates) {
  const MinimapLikeMapper mapper(subjects_, params_);
  io::SequenceSet reads;
  reads.add("r0", genome_.substr(4 * 6000 + 500, 4000));
  const auto records = mapper.map_reads_paf(reads);
  ASSERT_EQ(records.size(), 2u);  // prefix + suffix, both mapped
  const io::PafRecord& prefix = records[0];
  EXPECT_EQ(prefix.query_name, "r0");
  EXPECT_EQ(prefix.query_length, 4000u);
  EXPECT_EQ(prefix.query_begin, 0u);
  EXPECT_EQ(prefix.query_end, 1000u);
  EXPECT_EQ(prefix.strand, '+');
  EXPECT_EQ(prefix.target_name, "contig_4");
  EXPECT_EQ(prefix.target_length, 6000u);
  EXPECT_NEAR(static_cast<double>(prefix.target_begin), 500.0, 120.0);
  EXPECT_LE(prefix.target_end, 6000u);
  EXPECT_GT(prefix.matches, 0u);
}

TEST_F(MinimapLikeTest, PafOmitsUnmappedSegments) {
  const MinimapLikeMapper mapper(subjects_, params_);
  io::SequenceSet reads;
  util::Xoshiro256ss rng(7);
  reads.add("junk", random_dna(rng, 2500));
  EXPECT_TRUE(mapper.map_reads_paf(reads).empty());
}

TEST(WinnowIndex, MaskedLookupDropsFrequentKmers) {
  io::SequenceSet repetitive;
  std::string unit;
  for (int i = 0; i < 100; ++i) unit += "ACGTGGCTAAGCTTGACCGT";
  repetitive.add("rep0", unit);
  repetitive.add("rep1", unit);
  const WinnowIndex index(repetitive, {16, 5});
  // Some minimizer must occur many times; with cap 1 it is masked.
  bool any_masked = false;
  for (const core::Minimizer& m : core::minimizer_scan(unit, {16, 5})) {
    if (!index.lookup(m.kmer).empty() &&
        index.lookup_masked(m.kmer, 1).empty()) {
      any_masked = true;
      break;
    }
  }
  EXPECT_TRUE(any_masked);
}

TEST(WinnowIndex, CountInWindowMatchesPositions) {
  io::SequenceSet subjects;
  util::Xoshiro256ss rng(9);
  std::string seq(5000, 'A');
  for (char& c : seq) {
    c = core::code_base(static_cast<std::uint8_t>(rng.bounded(4)));
  }
  subjects.add("s", seq);
  const WinnowIndex index(subjects, {12, 8});
  const auto positions = index.subject_positions(0);
  ASSERT_FALSE(positions.empty());
  EXPECT_EQ(index.count_in_window(0, 0, 5000),
            static_cast<std::uint32_t>(positions.size()));
  EXPECT_EQ(index.count_in_window(0, 4999, 4999),
            positions.back() == 4999 ? 1u : 0u);
}

}  // namespace
}  // namespace jem::baseline
