// io::crc32 against zlib's crc32_z: every length and start offset around
// the fold kernel's 16- and 64-byte steps, chaining over split points, and
// the whole-member decoder's per-block CRC over stored, fixed and dynamic
// blocks.
#include "io/crc32.hpp"

#include <gtest/gtest.h>

#include <zlib.h>

#include <algorithm>
#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "core/mapper.hpp"
#include "io/inflate.hpp"
#include "obs/metrics.hpp"
#include "util/prng.hpp"

namespace jem::io {
namespace {

std::uint32_t zlib_crc(std::uint32_t crc, std::string_view bytes) {
  return static_cast<std::uint32_t>(crc32_z(
      crc, reinterpret_cast<const Bytef*>(bytes.data()), bytes.size()));
}

std::string random_bytes(std::size_t length, std::uint64_t seed) {
  util::Xoshiro256ss rng(seed);
  std::string text(length, '\0');
  for (char& c : text) c = static_cast<char>(rng.bounded(256));
  return text;
}

std::string fastq_like(std::size_t length, std::uint64_t seed) {
  util::Xoshiro256ss rng(seed);
  std::string text;
  for (std::size_t read = 0; text.size() < length; ++read) {
    const std::size_t bases = 50 + rng.bounded(400);
    text += "@read" + std::to_string(read) + "\n";
    for (std::size_t i = 0; i < bases; ++i) text += "ACGT"[rng.bounded(4)];
    text += "\n+\n" + std::string(bases, 'I') + "\n";
  }
  text.resize(length);
  return text;
}

/// Checks crc32() and, where this CPU runs it, the fold kernel directly,
/// from a zero and from a nonzero starting CRC.
void expect_matches_zlib(std::string_view bytes, const std::string& what) {
  for (const std::uint32_t start : {0u, 0x9e3779b9u}) {
    const std::uint32_t want = zlib_crc(start, bytes);
    ASSERT_EQ(crc32(start, bytes), want) << what << " start " << start;
    if (detail::crc32_fold4_supported()) {
      ASSERT_EQ(detail::crc32_fold4(start, bytes), want)
          << what << " start " << start;
    }
  }
}

TEST(Crc32, MatchesZlibAtEveryLengthAndOffset) {
  const std::string buffer = random_bytes(320, 1);
  for (std::size_t offset = 0; offset < 16; ++offset) {
    for (std::size_t length = 0; length <= 300; ++length) {
      expect_matches_zlib(std::string_view(buffer).substr(offset, length),
                          "offset " + std::to_string(offset) + " length " +
                              std::to_string(length));
    }
  }
}

TEST(Crc32, MatchesZlibOnLargeBuffers) {
  constexpr std::size_t k64 = std::size_t{1} << 16;
  const std::string random = random_bytes(k64 + 1, 2);
  for (const std::size_t length : {k64 - 1, k64, k64 + 1}) {
    expect_matches_zlib(std::string_view(random).substr(0, length),
                        "random " + std::to_string(length));
  }
  expect_matches_zlib(random_bytes(std::size_t{1} << 20, 3), "random 1 MiB");
  expect_matches_zlib(fastq_like(std::size_t{1} << 20, 4), "FASTQ 1 MiB");
}

TEST(Crc32, ChainsOverRandomSplitPoints) {
  const std::string text = fastq_like(200'000, 5);
  const std::uint32_t whole = zlib_crc(0, text);
  util::Xoshiro256ss rng(6);
  for (int trial = 0; trial < 50; ++trial) {
    std::vector<std::size_t> cuts = {0, text.size()};
    for (std::size_t n = rng.bounded(12); n > 0; --n) {
      cuts.push_back(rng.bounded(text.size() + 1));
    }
    std::sort(cuts.begin(), cuts.end());
    std::uint32_t crc = 0;
    for (std::size_t i = 1; i < cuts.size(); ++i) {
      crc = crc32(crc, std::string_view(text).substr(cuts[i - 1],
                                                     cuts[i] - cuts[i - 1]));
    }
    ASSERT_EQ(crc, whole) << "trial " << trial;
  }
}

TEST(Crc32, LanesNameTheKernelThisCpuRunsAndArePublished) {
  EXPECT_EQ(crc32_lanes(), detail::crc32_fold4_supported() ? 4 : 1);
  obs::Registry registry;
  core::publish_kernel_lanes(registry);
  const obs::MetricsSnapshot snapshot = registry.snapshot();
  const obs::MetricValue* lanes = snapshot.find("io.crc32.lanes");
  ASSERT_NE(lanes, nullptr);
  EXPECT_EQ(lanes->level, crc32_lanes());
}

/// One gzip member whose deflate data holds stored blocks (level 0), then
/// fixed-code blocks, then dynamic-code blocks: deflateParams ends the
/// current block when the level or strategy changes.
std::string mixed_block_member(const std::string& stored,
                               const std::string& fixed,
                               const std::string& dynamic) {
  z_stream stream{};
  EXPECT_EQ(deflateInit2(&stream, 0, Z_DEFLATED, 15 + 16, 8,
                         Z_DEFAULT_STRATEGY),
            Z_OK);
  std::string out(
      deflateBound(&stream, stored.size() + fixed.size() + dynamic.size()) +
          1024,
      '\0');
  stream.next_out = reinterpret_cast<Bytef*>(out.data());
  stream.avail_out = static_cast<uInt>(out.size());
  const auto feed = [&](const std::string& part, int flush) {
    stream.next_in = reinterpret_cast<Bytef*>(const_cast<char*>(part.data()));
    stream.avail_in = static_cast<uInt>(part.size());
    EXPECT_EQ(deflate(&stream, flush), flush == Z_FINISH ? Z_STREAM_END : Z_OK);
  };
  feed(stored, Z_NO_FLUSH);
  EXPECT_EQ(deflateParams(&stream, 6, Z_FIXED), Z_OK);
  feed(fixed, Z_NO_FLUSH);
  EXPECT_EQ(deflateParams(&stream, 6, Z_DEFAULT_STRATEGY), Z_OK);
  feed(dynamic, Z_FINISH);
  out.resize(stream.total_out);
  deflateEnd(&stream);
  return out;
}

TEST(Crc32, InflateFoldsEveryBlockKindIntoTheTrailerCheck) {
  const std::string stored = random_bytes(70'000, 7);  // two stored blocks
  const std::string fixed = fastq_like(5'000, 8);
  const std::string dynamic = fastq_like(300'000, 9);
  const std::string payload = stored + fixed + dynamic;
  std::string member = mixed_block_member(stored, fixed, dynamic);
  // The stored bytes appear verbatim after the 10-byte header.
  ASSERT_NE(member.find(stored.substr(0, 1000)), std::string::npos);

  const auto out = std::make_unique<char[]>(payload.size());
  ASSERT_TRUE(inflate_member(member, out.get(), payload.size()));
  ASSERT_TRUE(std::string_view(out.get(), payload.size()) == payload);

  // A byte changed in a stored block yields other bytes, whose CRC the
  // trailer refuses; so does a changed trailer CRC.
  std::string bad_stored = member;
  bad_stored[member.find(stored.substr(0, 1000)) + 500] ^= 0x20;
  EXPECT_FALSE(inflate_member(bad_stored, out.get(), payload.size()));
  std::string bad_crc = member;
  bad_crc[member.size() - 8] ^= 0x01;
  EXPECT_FALSE(inflate_member(bad_crc, out.get(), payload.size()));
}

}  // namespace
}  // namespace jem::io
