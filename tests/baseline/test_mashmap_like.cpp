#include "baseline/mashmap_like.hpp"

#include <gtest/gtest.h>

#include <string>

#include "core/dna.hpp"
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

class MashmapLikeTest : public ::testing::Test {
 protected:
  void SetUp() override {
    util::Xoshiro256ss rng(31415);
    genome_ = random_dna(rng, 60'000);
    for (int i = 0; i < 10; ++i) {
      subjects_.add("contig_" + std::to_string(i),
                    genome_.substr(static_cast<std::size_t>(i) * 6000, 6000));
    }
    params_.k = 16;
    params_.sketch_size = 100;  // w ~ 19 at l=1000: denser than JEM for small tests
    params_.segment_length = 1000;
  }

  std::string genome_;
  io::SequenceSet subjects_;
  MashmapParams params_;
};

TEST_F(MashmapLikeTest, IndexesAllSubjectMinimizers) {
  const MashmapLikeMapper mapper(subjects_, params_);
  EXPECT_GT(mapper.index_postings(), 0u);
  // Density ~ 2/(w+1) per k-mer: ~5700 postings expected for 60 Kbp, w=20.
  EXPECT_GT(mapper.index_postings(), 2000u);
  EXPECT_LT(mapper.index_postings(), 12000u);
}

TEST_F(MashmapLikeTest, MapsExactSegmentToItsContig) {
  const MashmapLikeMapper mapper(subjects_, params_);
  for (int contig = 0; contig < 10; ++contig) {
    const std::string segment =
        genome_.substr(static_cast<std::size_t>(contig) * 6000 + 2500, 1000);
    const MashmapHit hit = mapper.map_segment(segment);
    ASSERT_TRUE(hit.mapped()) << "contig " << contig;
    EXPECT_EQ(hit.subject, static_cast<io::SeqId>(contig));
    EXPECT_GT(hit.jaccard, 0.5);
  }
}

TEST_F(MashmapLikeTest, ReportsPlausiblePosition) {
  const MashmapLikeMapper mapper(subjects_, params_);
  // Segment at offset 2500 of contig 4.
  const std::string segment = genome_.substr(4 * 6000 + 2500, 1000);
  const MashmapHit hit = mapper.map_segment(segment);
  ASSERT_TRUE(hit.mapped());
  EXPECT_EQ(hit.subject, 4u);
  EXPECT_NEAR(static_cast<double>(hit.position), 2500.0, 300.0);
}

TEST_F(MashmapLikeTest, MapsReverseComplementSegment) {
  const MashmapLikeMapper mapper(subjects_, params_);
  const std::string segment =
      core::reverse_complement(genome_.substr(3 * 6000 + 1000, 1000));
  const MashmapHit hit = mapper.map_segment(segment);
  ASSERT_TRUE(hit.mapped());
  EXPECT_EQ(hit.subject, 3u);
}

TEST_F(MashmapLikeTest, RandomSegmentDoesNotMap) {
  const MashmapLikeMapper mapper(subjects_, params_);
  util::Xoshiro256ss rng(161803);
  const MashmapHit hit = mapper.map_segment(random_dna(rng, 1000));
  EXPECT_FALSE(hit.mapped());
}

TEST_F(MashmapLikeTest, EmptySegmentDoesNotMap) {
  const MashmapLikeMapper mapper(subjects_, params_);
  EXPECT_FALSE(mapper.map_segment("").mapped());
  EXPECT_FALSE(mapper.map_segment("ACGT").mapped());  // shorter than k
}

TEST_F(MashmapLikeTest, MinSharedThresholdFilters) {
  MashmapParams strict = params_;
  strict.min_shared = 1000;  // unreachable for a 1000 bp segment
  const MashmapLikeMapper mapper(subjects_, strict);
  const std::string segment = genome_.substr(2500, 1000);
  EXPECT_FALSE(mapper.map_segment(segment).mapped());
}

TEST_F(MashmapLikeTest, MinJaccardThresholdFilters) {
  MashmapParams strict = params_;
  strict.min_jaccard = 1.01;  // impossible
  const MashmapLikeMapper mapper(subjects_, strict);
  const std::string segment = genome_.substr(2500, 1000);
  EXPECT_FALSE(mapper.map_segment(segment).mapped());
}

TEST_F(MashmapLikeTest, FrequencyMaskDropsRepetitiveMinimizers) {
  // A subject set that is one motif repeated everywhere: every minimizer
  // occurs in all contigs many times. With a tiny occurrence cap nothing
  // useful remains and mapping fails instead of going quadratic.
  io::SequenceSet repetitive;
  std::string motif = "ACGTGGCTAAGCTTGACCGT";  // 20 bp
  std::string unit;
  for (int i = 0; i < 200; ++i) unit += motif;
  for (int i = 0; i < 5; ++i) {
    repetitive.add("rep_" + std::to_string(i), unit);
  }
  MashmapParams masked = params_;
  masked.max_occurrences = 2;
  const MashmapLikeMapper mapper(repetitive, masked);
  const MashmapHit hit = mapper.map_segment(unit.substr(100, 1000));
  EXPECT_FALSE(hit.mapped());
}

TEST_F(MashmapLikeTest, MapReadsMatchesJemOutputShape) {
  const MashmapLikeMapper mapper(subjects_, params_);
  io::SequenceSet reads;
  reads.add("r0", genome_.substr(1000, 8000));
  reads.add("r1", genome_.substr(20'000, 500));  // short read: prefix only
  const auto mappings = mapper.map_reads(reads);
  ASSERT_EQ(mappings.size(), 3u);  // 2 segments + 1 segment
  EXPECT_EQ(mappings[0].read, 0u);
  EXPECT_EQ(mappings[2].read, 1u);
  EXPECT_EQ(mappings[2].end, core::ReadEnd::kPrefix);
}

TEST_F(MashmapLikeTest, SegmentSpanningTwoContigsPicksBetterHalf) {
  const MashmapLikeMapper mapper(subjects_, params_);
  // Segment straddling the contig 0/1 boundary: 700 bp in contig 0,
  // 300 bp in contig 1 -> contig 0 should win.
  const std::string segment = genome_.substr(6000 - 700, 1000);
  const MashmapHit hit = mapper.map_segment(segment);
  ASSERT_TRUE(hit.mapped());
  EXPECT_EQ(hit.subject, 0u);
}

}  // namespace
}  // namespace jem::baseline
