#include "core/end_segments.hpp"

#include <gtest/gtest.h>

#include <string>
#include <vector>

namespace jem::core {
namespace {

TEST(EndSegments, LongReadYieldsPrefixAndSuffix) {
  const std::string read(5000, 'A');
  const auto segments = extract_end_segments(3, read, 1000);
  ASSERT_EQ(segments.size(), 2u);

  EXPECT_EQ(segments[0].read, 3u);
  EXPECT_EQ(segments[0].end, ReadEnd::kPrefix);
  EXPECT_EQ(segments[0].offset, 0u);
  EXPECT_EQ(segments[0].bases.size(), 1000u);

  EXPECT_EQ(segments[1].end, ReadEnd::kSuffix);
  EXPECT_EQ(segments[1].offset, 4000u);
  EXPECT_EQ(segments[1].bases.size(), 1000u);
}

TEST(EndSegments, SegmentsViewIntoTheRead) {
  std::string read(3000, 'A');
  read[0] = 'C';
  read[2999] = 'G';
  const auto segments = extract_end_segments(0, read, 1000);
  EXPECT_EQ(segments[0].bases.front(), 'C');
  EXPECT_EQ(segments[1].bases.back(), 'G');
}

TEST(EndSegments, ShortReadYieldsSinglePrefix) {
  const std::string read(800, 'T');
  const auto segments = extract_end_segments(1, read, 1000);
  ASSERT_EQ(segments.size(), 1u);
  EXPECT_EQ(segments[0].end, ReadEnd::kPrefix);
  EXPECT_EQ(segments[0].bases.size(), 800u);
}

TEST(EndSegments, ExactlySegmentLengthYieldsSinglePrefix) {
  const std::string read(1000, 'T');
  const auto segments = extract_end_segments(0, read, 1000);
  ASSERT_EQ(segments.size(), 1u);
  EXPECT_EQ(segments[0].bases.size(), 1000u);
}

TEST(EndSegments, JustOverSegmentLengthYieldsOverlappingPair) {
  const std::string read(1001, 'T');
  const auto segments = extract_end_segments(0, read, 1000);
  ASSERT_EQ(segments.size(), 2u);
  EXPECT_EQ(segments[1].offset, 1u);
  EXPECT_EQ(segments[1].bases.size(), 1000u);
}

TEST(EndSegments, EmptyReadYieldsNothing) {
  EXPECT_TRUE(extract_end_segments(0, "", 1000).empty());
}

TEST(EndSegments, ZeroSegmentLengthYieldsNothing) {
  EXPECT_TRUE(extract_end_segments(0, "ACGT", 0).empty());
}

TEST(EndSegments, AppendingFormsAddToTheBufferAfterWhatItHolds) {
  // The engine appends read after read to one reused buffer: each read's
  // segments follow the earlier ones, field for field the extractors'.
  const std::string reads[] = {"", std::string(800, 'T'),
                               std::string(1000, 'C'), std::string(1001, 'G'),
                               std::string(3500, 'A')};
  for (const bool tiled : {false, true}) {
    std::vector<EndSegment> buffer;
    std::vector<EndSegment> expected;
    for (io::SeqId id = 0; id < 5; ++id) {
      const std::vector<EndSegment> segments =
          tiled ? extract_tiled_segments(id, reads[id], 1000)
                : extract_end_segments(id, reads[id], 1000);
      EXPECT_EQ(segments.size(), segment_count(reads[id].size(), 1000, tiled));
      expected.insert(expected.end(), segments.begin(), segments.end());
      tiled ? append_tiled_segments(id, reads[id], 1000, buffer)
            : append_end_segments(id, reads[id], 1000, buffer);
    }
    ASSERT_EQ(buffer.size(), expected.size()) << "tiled " << tiled;
    for (std::size_t i = 0; i < buffer.size(); ++i) {
      EXPECT_EQ(buffer[i].read, expected[i].read);
      EXPECT_EQ(buffer[i].end, expected[i].end);
      EXPECT_EQ(buffer[i].offset, expected[i].offset);
      EXPECT_EQ(buffer[i].bases.data(), expected[i].bases.data());
      EXPECT_EQ(buffer[i].bases.size(), expected[i].bases.size());
    }
  }
}

TEST(ReadEndTag, TagsAreStable) {
  EXPECT_EQ(read_end_tag(ReadEnd::kPrefix), 'P');
  EXPECT_EQ(read_end_tag(ReadEnd::kSuffix), 'S');
}

}  // namespace
}  // namespace jem::core
