#include "io/gzip.hpp"

#include <gtest/gtest.h>

#include <sys/resource.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cstdint>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "io/fasta.hpp"
#include "obs/metrics.hpp"
#include "util/prng.hpp"

namespace jem::io {
namespace {

TEST(Gzip, DetectsMagicBytes) {
  EXPECT_TRUE(is_gzip("\x1f\x8b\x08rest"));
  EXPECT_FALSE(is_gzip(">fasta"));
  EXPECT_FALSE(is_gzip(""));
  EXPECT_FALSE(is_gzip("\x1f"));
}

TEST(Gzip, RoundTripsText) {
  const std::string original = "hello gzip world\nsecond line\n";
  const std::string compressed = gzip_compress(original);
  EXPECT_TRUE(is_gzip(compressed));
  EXPECT_EQ(gzip_decompress(compressed), original);
}

TEST(Gzip, RoundTripsEmptyInput) {
  const std::string compressed = gzip_compress("");
  EXPECT_EQ(gzip_decompress(compressed), "");
}

TEST(Gzip, RoundTripsLargeRepetitiveData) {
  std::string original;
  for (int i = 0; i < 5000; ++i) original += "ACGTACGTACGT";
  const std::string compressed = gzip_compress(original);
  EXPECT_LT(compressed.size(), original.size() / 10);  // compresses well
  EXPECT_EQ(gzip_decompress(compressed), original);
}

TEST(Gzip, RoundTripsIncompressibleData) {
  util::Xoshiro256ss rng(1);
  std::string original(100'000, '\0');
  for (char& c : original) c = static_cast<char>(rng.bounded(256));
  EXPECT_EQ(gzip_decompress(gzip_compress(original)), original);
}

TEST(Gzip, ThrowsOnCorruptStream) {
  std::string compressed = gzip_compress("some payload");
  compressed[compressed.size() / 2] ^= char(0xff);
  compressed[compressed.size() / 2 + 1] ^= char(0xff);
  EXPECT_THROW((void)gzip_decompress(compressed), std::runtime_error);
}

TEST(Gzip, ThrowsOnTruncatedStream) {
  const std::string compressed = gzip_compress("some payload to truncate");
  const std::string truncated = compressed.substr(0, compressed.size() / 2);
  EXPECT_THROW((void)gzip_decompress(truncated), std::runtime_error);
}

TEST(Gzip, ReadFileAutoHandlesPlainFiles) {
  const std::string path = ::testing::TempDir() + "/jem_plain.txt";
  {
    std::ofstream out(path);
    out << "plain content";
  }
  EXPECT_EQ(read_file_auto(path), "plain content");
}

TEST(Gzip, ReadFileAutoHandlesGzipFiles) {
  const std::string path = ::testing::TempDir() + "/jem_test.gz";
  {
    std::ofstream out(path, std::ios::binary);
    const std::string compressed = gzip_compress("compressed content");
    out.write(compressed.data(),
              static_cast<std::streamsize>(compressed.size()));
  }
  EXPECT_EQ(read_file_auto(path), "compressed content");
}

TEST(Gzip, ReadFileAutoThrowsOnMissingFile) {
  EXPECT_THROW((void)read_file_auto("/nonexistent/file.gz"),
               std::runtime_error);
}

TEST(Gzip, FastaReaderAcceptsGzippedFiles) {
  const std::string path = ::testing::TempDir() + "/jem_seqs.fa.gz";
  {
    std::ofstream out(path, std::ios::binary);
    const std::string compressed =
        gzip_compress(">s1 desc\nACGTACGT\n>s2\nTTTT\n");
    out.write(compressed.data(),
              static_cast<std::streamsize>(compressed.size()));
  }
  const auto records = read_sequences_file(path);
  ASSERT_EQ(records.size(), 2u);
  EXPECT_EQ(records[0].name, "s1");
  EXPECT_EQ(records[0].bases, "ACGTACGT");
  EXPECT_EQ(records[1].bases, "TTTT");
}

// --- Structured corruption taxonomy (GzipError reasons) --------------------

GzipReason gzip_reason_of(const std::string& data) {
  try {
    (void)gzip_decompress(data);
  } catch (const GzipError& error) {
    return error.reason();
  }
  ADD_FAILURE() << "expected a GzipError";
  return GzipReason::kInitFailed;
}

TEST(Gzip, FlippedCrcTrailerIsBadCrc) {
  // Member trailer: CRC32 (last 8..5 bytes), then ISIZE (last 4 bytes).
  std::string compressed = gzip_compress("payload whose trailer we corrupt");
  compressed[compressed.size() - 8] ^= char(0x01);
  EXPECT_EQ(gzip_reason_of(compressed), GzipReason::kBadCrc);
}

TEST(Gzip, FlippedIsizeTrailerIsBadLength) {
  std::string compressed = gzip_compress("payload whose trailer we corrupt");
  compressed[compressed.size() - 1] ^= char(0x01);
  EXPECT_EQ(gzip_reason_of(compressed), GzipReason::kBadLength);
}

TEST(Gzip, TruncationMidMemberIsTruncated) {
  const std::string compressed = gzip_compress("payload that will be cut off");
  for (const std::size_t keep : {compressed.size() / 2, compressed.size() - 1,
                                 compressed.size() - 8}) {
    EXPECT_EQ(gzip_reason_of(compressed.substr(0, keep)),
              GzipReason::kTruncated)
        << "kept " << keep << " of " << compressed.size();
  }
}

TEST(Gzip, BytesAfterTheFinalMemberAreTrailingGarbage) {
  const std::string compressed = gzip_compress("clean member");
  EXPECT_EQ(gzip_reason_of(compressed + "not gzip"),
            GzipReason::kTrailingGarbage);
}

TEST(Gzip, ConcatenatedMembersDecodeLikeGzipCat) {
  const std::string both = gzip_compress("first half, ") +
                           gzip_compress("second half");
  EXPECT_EQ(gzip_decompress(both), "first half, second half");
}

TEST(Gzip, CorruptSecondMemberStillClassifies) {
  std::string both =
      gzip_compress("good member") + gzip_compress("bad member");
  both[both.size() - 1] ^= char(0x01);  // second member's ISIZE
  EXPECT_EQ(gzip_reason_of(both), GzipReason::kBadLength);
}

TEST(Gzip, ReasonNamesAreStable) {
  EXPECT_EQ(gzip_reason_name(GzipReason::kBadCrc), "bad-crc");
  EXPECT_EQ(gzip_reason_name(GzipReason::kTruncated), "truncated");
  EXPECT_EQ(gzip_reason_name(GzipReason::kTrailingGarbage),
            "trailing-garbage");
}

// --- Multi-member inputs (members are inflated in parallel) -----------------
//
// Every expected reason below was recorded from the serial one-member-at-a-
// time decoder; the parallel decoder must keep each of them.

/// Text of `length` bytes that compresses but is not a run of one byte.
std::string payload_text(std::size_t length, std::uint64_t seed) {
  util::Xoshiro256ss rng(seed);
  std::string text(length, '\0');
  for (char& c : text) c = "ACGT\n"[rng.bounded(5)];
  return text;
}

/// Members whose payloads are `payloads`, concatenated like `cat a.gz b.gz`.
std::string members_of(const std::vector<std::string>& payloads,
                       int level = 6) {
  std::string out;
  for (const std::string& payload : payloads) {
    out += gzip_compress(payload, level);
  }
  return out;
}

std::string concat(const std::vector<std::string>& payloads) {
  std::string out;
  for (const std::string& payload : payloads) out += payload;
  return out;
}

TEST(GzipMembers, FalseHeaderCandidateInsideStoredMembers) {
  // Level 0 stores payloads verbatim, so each member carries a byte run that
  // looks like a gzip member header, preceded by four bytes that would read
  // as a 2 GiB ISIZE if that run started a member.
  const std::string fake = std::string("\xff\xff\xff\x7f") +
                           std::string("\x1f\x8b\x08\x00", 4) + "tail";
  std::vector<std::string> payloads;
  for (int i = 0; i < 4; ++i) {
    payloads.push_back(payload_text(1000 + 700 * i, i) + fake +
                       payload_text(300, 10 + i));
  }
  const std::string stored = members_of(payloads, 0);
  ASSERT_NE(stored.find(std::string("\x1f\x8b\x08\x00", 4), 1),
            std::string::npos);
  EXPECT_EQ(gzip_decompress(stored), concat(payloads));
  // Mixed with compressed members, and as a lone member.
  const std::string mixed = stored + members_of({payload_text(5000, 20)});
  EXPECT_EQ(gzip_decompress(mixed), concat(payloads) + payload_text(5000, 20));
  EXPECT_EQ(gzip_decompress(gzip_compress(payloads[0], 0)), payloads[0]);
}

/// What the stitch did in gzip_decompress calls since construction: members
/// it decoded serially and bytes it copied out of their slots.
class StitchCounts {
 public:
  [[nodiscard]] std::uint64_t serial_members() const {
    return serial_.value() - serial_at_start_;
  }
  [[nodiscard]] std::uint64_t copied_bytes() const {
    return copied_.value() - copied_at_start_;
  }

 private:
  obs::Counter& serial_ =
      obs::default_registry().counter("io.gzip.serial_members");
  obs::Counter& copied_ = obs::default_registry().counter(
      "io.gzip.copied_bytes", obs::Unit::kBytes);
  std::uint64_t serial_at_start_ = serial_.value();
  std::uint64_t copied_at_start_ = copied_.value();
};

TEST(GzipMembers, CleanMembersLandInTheirSlots) {
  // Members inflate straight into the buffer laid out from their trailers:
  // the stitch neither decodes nor copies anything.
  for (const std::size_t count : {std::size_t{1}, std::size_t{4}}) {
    std::vector<std::string> payloads;
    for (std::size_t i = 0; i < count; ++i) {
      payloads.push_back(payload_text(200'000 + 1'000 * i, 40 + i));
    }
    const StitchCounts counts;
    EXPECT_EQ(gzip_decompress(members_of(payloads)), concat(payloads));
    EXPECT_EQ(counts.serial_members(), 0u) << count << " members";
    EXPECT_EQ(counts.copied_bytes(), 0u) << count << " members";
  }
}

TEST(GzipMembers, FullSizeMembersFirstTouchTheirSlots) {
  // Four members of more than 2 MiB each: the output buffer is large enough
  // to be hinted onto huge pages, and nothing writes it before the four
  // inflaters, which each fault in their own slot. The bytes are the
  // concatenation a serial decode returns, and the stitch does nothing.
  constexpr std::size_t kMemberBytes = std::size_t{5} << 19;  // 2.5 MiB
  std::vector<std::string> payloads;
  for (std::size_t i = 0; i < 4; ++i) {
    payloads.push_back(payload_text(kMemberBytes + 4'099 * i, 60 + i));
  }
  const std::string expected = concat(payloads);
  const StitchCounts counts;
  const std::string out = gzip_decompress(members_of(payloads, 1));
  ASSERT_EQ(out.size(), expected.size());
  EXPECT_TRUE(out == expected);  // not EXPECT_EQ: no 10 MB diff on failure
  EXPECT_EQ(counts.serial_members(), 0u);
  EXPECT_EQ(counts.copied_bytes(), 0u);
}

/// `value` as the four little-endian bytes of an ISIZE trailer.
std::string le32(std::uint32_t value) {
  std::string bytes(4, '\0');
  for (char& byte : bytes) {
    byte = static_cast<char>(value & 0xff);
    value >>= 8;
  }
  return bytes;
}

TEST(GzipMembers, WholeMemberStoredInsideAMember) {
  // A valid member stored verbatim inside a level-0 member decodes cleanly
  // from its offset, but is not on the member chain. The four bytes before
  // it read as an ISIZE of 4096, more than 16x the ~220 bytes of the outer
  // member before it, so it is no boundary. Or they read as 16 or 204,
  // plausible there: the outer member then splits into two slots. With 204
  // it fills the first one exactly, and its input ends exactly at the
  // inner member, but zlib has not ended it. Either way the stitch decodes
  // it. The stored member is each of members 1-4 in turn.
  const std::string inner = gzip_compress(payload_text(300, 7));
  for (const auto& [isize, plausible] :
       {std::pair{4096u, false}, std::pair{16u, true}, std::pair{204u, true}}) {
    for (std::size_t stored = 0; stored < 4; ++stored) {
      std::vector<std::string> payloads = {
          payload_text(3000, 1), payload_text(3000, 2), payload_text(3000, 3)};
      payloads.insert(
          payloads.begin() + static_cast<std::ptrdiff_t>(stored),
          payload_text(200, 8) + le32(isize) + inner + payload_text(100, 9));
      std::string data;
      for (std::size_t i = 0; i < 4; ++i) {
        data += gzip_compress(payloads[i], i == stored ? 0 : 6);
      }
      const StitchCounts counts;
      EXPECT_EQ(gzip_decompress(data), concat(payloads))
          << "ISIZE " << isize << ", stored member " << stored + 1;
      EXPECT_EQ(counts.copied_bytes() > 0, plausible)
          << "ISIZE " << isize << ", stored member " << stored + 1;
      EXPECT_EQ(counts.serial_members() > 0, plausible)
          << "ISIZE " << isize << ", stored member " << stored + 1;
    }
  }
}

TEST(GzipMembers, MemberCompressedPastTheCap) {
  // 1 MB of one repeated FASTQ record deflates ~1000x, past the 16x a
  // trailer may claim: its end is no boundary, and the stitch decodes it.
  // The member after it inflates to the same length, so the slot that
  // spans both is exactly filled by the first, which ends short of it.
  std::string repeated;
  while (repeated.size() < 1'000'000) repeated += "@r\nACGTACGT\n+\nIIIIIIII\n";
  const std::vector<std::string> payloads = {
      payload_text(30'000, 1), repeated,
      payload_text(repeated.size(), 2), payload_text(30'000, 3)};
  const std::string data = members_of(payloads);
  ASSERT_GT(repeated.size(), 16 * gzip_compress(repeated).size());
  const StitchCounts counts;
  EXPECT_EQ(gzip_decompress(data), concat(payloads));
  EXPECT_GT(counts.serial_members(), 0u);
  // Alone, it gets no slot at all.
  EXPECT_EQ(gzip_decompress(gzip_compress(repeated)), repeated);
}

/// `member` with its ISIZE trailer moved by `delta`.
std::string shift_isize(std::string member, int delta) {
  std::uint32_t isize = 0;
  for (std::size_t i = 1; i <= 4; ++i) {
    isize = isize << 8 |
            static_cast<unsigned char>(member[member.size() - i]);
  }
  isize += static_cast<std::uint32_t>(delta);
  member.replace(member.size() - 4, 4, le32(isize));
  return member;
}

TEST(GzipMembers, TwoToNineMembersIncludingEmptyOnes) {
  // More members than threads, members larger than the 64 KiB inflate step,
  // and empty members anywhere in the chain.
  for (std::size_t count = 2; count <= 9; ++count) {
    std::vector<std::string> payloads;
    for (std::size_t i = 0; i < count; ++i) {
      const std::size_t length = i % 3 == 1 ? 0 : 1 + 20'000 * i;
      payloads.push_back(payload_text(length, 100 * count + i));
    }
    EXPECT_EQ(gzip_decompress(members_of(payloads)), concat(payloads))
        << count << " members";
  }
  EXPECT_EQ(gzip_decompress(members_of({"", ""})), "");
}

TEST(GzipMembers, ManySmallMembersLikeBgzip) {
  std::vector<std::string> payloads;
  for (std::size_t i = 0; i < 64; ++i) {
    payloads.push_back(payload_text(100 + 97 * i, 500 + i));
  }
  EXPECT_EQ(gzip_decompress(members_of(payloads)), concat(payloads));
}

/// Five members of distinct payloads; `member` is member i of them.
std::vector<std::string> five_members() {
  std::vector<std::string> members;
  for (std::size_t i = 0; i < 5; ++i) {
    members.push_back(gzip_compress(payload_text(20'000 + 3'000 * i, i)));
  }
  return members;
}

TEST(GzipMembers, CorruptBlockInMemberThreeOfFiveIsBadData) {
  std::vector<std::string> members = five_members();
  // First deflate byte after the 10-byte header: BFINAL=1, BTYPE=11 (a
  // reserved block type).
  members[2][10] = '\x07';
  EXPECT_EQ(gzip_reason_of(concat(members)), GzipReason::kBadData);
}

TEST(GzipMembers, FlippedCrcInMemberTwoIsBadCrc) {
  std::vector<std::string> members = five_members();
  members[1][members[1].size() - 8] ^= char(0x01);
  EXPECT_EQ(gzip_reason_of(concat(members)), GzipReason::kBadCrc);
}

TEST(GzipMembers, FlippedIsizeInLastMemberIsBadLength) {
  std::vector<std::string> members = five_members();
  members[4][members[4].size() - 1] ^= char(0x01);
  EXPECT_EQ(gzip_reason_of(concat(members)), GzipReason::kBadLength);
}

TEST(GzipMembers, FirstErrorInMemberOrderWins) {
  // A bad CRC in member 2 and a bad block in member 4: member 2 reports.
  std::vector<std::string> members = five_members();
  members[1][members[1].size() - 8] ^= char(0x01);
  members[3][10] = '\x07';
  EXPECT_EQ(gzip_reason_of(concat(members)), GzipReason::kBadCrc);
}

TEST(GzipMembers, ForgedIsizeIsBadLength) {
  // Every member's ISIZE claims 2 GiB.
  std::vector<std::string> members = five_members();
  for (std::string& member : members) {
    member.replace(member.size() - 4, 4, "\xff\xff\xff\x7f");
  }
  EXPECT_EQ(gzip_reason_of(concat(members)), GzipReason::kBadLength);
}

TEST(GzipMembers, IsizeOffByOneWithinTheCapIsBadLength) {
  // A slot one byte long or short: zlib's length check fails, or the slot
  // fills before the member ends. Either way the stitch reports kBadLength.
  for (const int delta : {-1, 1}) {
    std::vector<std::string> members = five_members();
    for (const std::size_t shifted : {std::size_t{1}, std::size_t{4}}) {
      std::vector<std::string> bad = members;
      bad[shifted] = shift_isize(bad[shifted], delta);
      EXPECT_EQ(gzip_reason_of(concat(bad)), GzipReason::kBadLength)
          << "member " << shifted + 1 << ", ISIZE " << delta;
    }
    EXPECT_EQ(gzip_reason_of(shift_isize(members[2], delta)),
              GzipReason::kBadLength)
        << "single member, ISIZE " << delta;
  }
}

/// Peak resident set of this process so far, in KiB.
long peak_rss_kib() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
#ifdef __APPLE__
  return usage.ru_maxrss / 1024;  // bytes there
#else
  return usage.ru_maxrss;
#endif
}

TEST(GzipMembers, CorruptIsizeNeverSizesAnAllocation) {
  // Over 4.2 MB of incompressible member: deflate's 1032x ratio allows
  // 4 GiB of output, so a trailer claiming 4 GiB is not implausible on its
  // face. It must still fail as kBadLength without that allocation, alone
  // and as one member of four.
  util::Xoshiro256ss rng(42);
  std::string noise(4'500'000, '\0');
  for (char& c : noise) c = static_cast<char>(rng.bounded(256));
  std::string single = gzip_compress(noise, 1);
  ASSERT_GT(single.size(), std::size_t{4'200'000});
  single.replace(single.size() - 4, 4, "\xff\xff\xff\xff");
  std::string members = gzip_compress(payload_text(1000, 1)) + single +
                        gzip_compress(payload_text(1000, 2)) +
                        gzip_compress(payload_text(1000, 3));
  const long before = peak_rss_kib();
  EXPECT_EQ(gzip_reason_of(single), GzipReason::kBadLength);
  EXPECT_EQ(gzip_reason_of(members), GzipReason::kBadLength);
  EXPECT_LT(peak_rss_kib() - before, 512L * 1024);
}

TEST(GzipMembers, TruncationInsideLastMemberIsTruncated) {
  const std::vector<std::string> members = five_members();
  const std::string head = concat({members[0], members[1], members[2],
                                   members[3]});
  const std::string& last = members[4];
  for (const std::size_t keep : {std::size_t{2}, std::size_t{5},
                                 std::size_t{10}, last.size() / 2,
                                 last.size() - 8, last.size() - 1}) {
    EXPECT_EQ(gzip_reason_of(head + last.substr(0, keep)),
              GzipReason::kTruncated)
        << "kept " << keep << " of " << last.size();
  }
  // One byte of the last member is not even gzip magic.
  EXPECT_EQ(gzip_reason_of(head + last.substr(0, 1)),
            GzipReason::kTrailingGarbage);
}

TEST(GzipMembers, NonGzipBytesAfterTheLastMemberAreTrailingGarbage) {
  const std::string all = concat(five_members());
  EXPECT_EQ(gzip_reason_of(all + "not gzip"), GzipReason::kTrailingGarbage);
  EXPECT_EQ(gzip_reason_of(all + std::string(1, '\0')),
            GzipReason::kTrailingGarbage);
}

TEST(GzipMembers, GzipMagicThenGarbageKeepsItsReason) {
  const std::string all = concat(five_members());
  // Magic, then a compression method that is not deflate.
  EXPECT_EQ(gzip_reason_of(all + "\x1f\x8bgarbage!"), GzipReason::kBadData);
  // A whole header candidate, then a reserved deflate block type ('n').
  EXPECT_EQ(gzip_reason_of(all + std::string("\x1f\x8b\x08\x00", 4) +
                           "junkjunkjunkjunk"),
            GzipReason::kBadData);
  // A header cut short.
  EXPECT_EQ(gzip_reason_of(all + "\x1f\x8b\x08"), GzipReason::kTruncated);
}

TEST(Gzip, ReadFileAutoReadsAnEmptyFile) {
  const std::string path = ::testing::TempDir() + "/jem_empty.txt";
  { std::ofstream out(path, std::ios::binary); }
  EXPECT_EQ(read_file_auto(path), "");
}

/// read_file_auto on a FIFO (no file size) while a thread writes `content`.
std::string read_through_fifo(const std::string& content) {
  const std::string path = ::testing::TempDir() + "/jem_fifo";
  ::unlink(path.c_str());
  EXPECT_EQ(::mkfifo(path.c_str(), 0600), 0);
  std::thread writer([&] {
    std::ofstream out(path, std::ios::binary);
    out.write(content.data(), static_cast<std::streamsize>(content.size()));
  });
  std::string read;
  try {
    read = read_file_auto(path);
  } catch (...) {
    writer.join();
    throw;
  }
  writer.join();
  ::unlink(path.c_str());
  return read;
}

TEST(Gzip, ReadFileAutoStreamsAFifo) {
  // Plain text over two 1 MiB reads, then three gzip members.
  const std::string plain = payload_text(1'500'000, 60);
  EXPECT_EQ(read_through_fifo(plain), plain);
  const std::vector<std::string> payloads = {payload_text(50'000, 61),
                                             payload_text(90'000, 62),
                                             payload_text(20'000, 63)};
  EXPECT_EQ(read_through_fifo(members_of(payloads)), concat(payloads));
  EXPECT_EQ(read_through_fifo(""), "");
}

TEST(Gzip, FastqReaderAcceptsGzippedFiles) {
  const std::string path = ::testing::TempDir() + "/jem_reads.fq.gz";
  {
    std::ofstream out(path, std::ios::binary);
    const std::string compressed =
        gzip_compress("@r1\nACGT\n+\nIIII\n");
    out.write(compressed.data(),
              static_cast<std::streamsize>(compressed.size()));
  }
  const auto records = read_sequences_file(path);
  ASSERT_EQ(records.size(), 1u);
  EXPECT_EQ(records[0].quality, "IIII");
}

}  // namespace
}  // namespace jem::io
