// Failure-injection / robustness tests: the parsers must never crash or
// hang on arbitrary input — every byte stream either parses or throws the
// module's error type.
#include <gtest/gtest.h>
#include <zlib.h>

#include <fstream>
#include <sstream>
#include <string>

#include "io/fasta.hpp"
#include "io/gzip.hpp"
#include "io/mapping_writer.hpp"
#include "io/paf.hpp"
#include "util/prng.hpp"

namespace jem::io {
namespace {

std::string random_bytes(util::Xoshiro256ss& rng, std::size_t length) {
  std::string data(length, '\0');
  for (char& c : data) c = static_cast<char>(rng.bounded(256));
  return data;
}

std::string random_printable(util::Xoshiro256ss& rng, std::size_t length) {
  // Bias toward the structural characters the parsers care about.
  constexpr std::string_view kAlphabet =
      ">@+ACGTN\t\n 0123456789abcdefPS*-";
  std::string data(length, ' ');
  for (char& c : data) {
    c = kAlphabet[rng.bounded(kAlphabet.size())];
  }
  return data;
}

TEST(ParserRobustness, SequencesParserNeverCrashesOnGarbage) {
  util::Xoshiro256ss rng(1);
  for (int trial = 0; trial < 200; ++trial) {
    const std::string data = trial % 2 == 0
                                 ? random_bytes(rng, rng.bounded(500))
                                 : random_printable(rng, rng.bounded(500));
    std::istringstream in(data);
    try {
      const auto records = read_sequences(in);
      for (const SequenceRecord& rec : records) {
        EXPECT_FALSE(rec.name.empty());
      }
    } catch (const ParseError&) {
      // Expected for malformed input.
    }
  }
}

TEST(ParserRobustness, MappingReaderNeverCrashesOnGarbage) {
  util::Xoshiro256ss rng(2);
  for (int trial = 0; trial < 200; ++trial) {
    std::istringstream in(random_printable(rng, rng.bounded(400)));
    try {
      (void)read_mappings(in);
    } catch (const std::runtime_error&) {
    }
  }
}

TEST(ParserRobustness, PafReaderNeverCrashesOnGarbage) {
  util::Xoshiro256ss rng(3);
  for (int trial = 0; trial < 200; ++trial) {
    std::istringstream in(random_printable(rng, rng.bounded(400)));
    try {
      (void)read_paf(in);
    } catch (const std::runtime_error&) {
    }
  }
}

TEST(ParserRobustness, GzipDecompressorNeverCrashesOnGarbage) {
  util::Xoshiro256ss rng(4);
  for (int trial = 0; trial < 100; ++trial) {
    std::string data = random_bytes(rng, 10 + rng.bounded(300));
    // Half the trials lead with the gzip magic to exercise the inflater.
    if (trial % 2 == 0 && data.size() >= 2) {
      data[0] = '\x1f';
      data[1] = '\x8b';
    }
    if (is_gzip(data)) {
      EXPECT_THROW((void)gzip_decompress(data), std::runtime_error);
    }
  }
  // Multi-member: valid members with garbage between, inside or after them.
  for (int trial = 0; trial < 100; ++trial) {
    std::string data;
    const std::size_t members = 2 + rng.bounded(6);
    for (std::size_t m = 0; m < members; ++m) {
      std::string member = gzip_compress(random_bytes(rng, rng.bounded(500)));
      if (rng.bounded(members) == 0) {
        member = member.substr(0, rng.bounded(member.size())) +
                 random_bytes(rng, 1 + rng.bounded(30));
      }
      data += member;
    }
    try {
      (void)gzip_decompress(data);
    } catch (const std::runtime_error&) {
    }
  }
}

/// The serial decoder gzip_decompress replaced, kept as the oracle: one
/// zlib stream walks the members in order through a 64 KiB bounce buffer.
/// Returns the output, or "!<reason>" for the GzipError it would throw.
std::string gunzip_reference(const std::string& data) {
  z_stream stream{};
  if (inflateInit2(&stream, 15 + 16) != Z_OK) return "!init-failed";
  std::string out;
  std::string buffer(1 << 16, '\0');
  stream.next_in = reinterpret_cast<Bytef*>(const_cast<char*>(data.data()));
  stream.avail_in = static_cast<uInt>(data.size());
  std::string result;
  for (;;) {
    int rc = Z_OK;
    do {
      stream.next_out = reinterpret_cast<Bytef*>(buffer.data());
      stream.avail_out = static_cast<uInt>(buffer.size());
      rc = inflate(&stream, Z_NO_FLUSH);
      if (rc == Z_DATA_ERROR) {
        const std::string msg = stream.msg == nullptr ? "" : stream.msg;
        result = msg == "incorrect data check"     ? "!bad-crc"
                 : msg == "incorrect length check" ? "!bad-length"
                                                   : "!bad-data";
      } else if (rc != Z_OK && rc != Z_STREAM_END && rc != Z_BUF_ERROR) {
        result = "!bad-data";
      } else {
        out.append(buffer.data(), buffer.size() - stream.avail_out);
        if (rc != Z_STREAM_END && stream.avail_in == 0) result = "!truncated";
      }
      if (!result.empty()) {
        inflateEnd(&stream);
        return result;
      }
    } while (rc != Z_STREAM_END);
    if (stream.avail_in == 0) break;
    if (!is_gzip(std::string_view(reinterpret_cast<const char*>(stream.next_in),
                                  stream.avail_in))) {
      inflateEnd(&stream);
      return "!trailing-garbage";
    }
    inflateReset(&stream);
  }
  inflateEnd(&stream);
  return out;
}

std::string gunzip_outcome(const std::string& data) {
  try {
    return gzip_decompress(data);
  } catch (const GzipError& error) {
    return "!" + std::string(gzip_reason_name(error.reason()));
  }
}

/// Hits a gzip input the way trial `trial` of the corruption tests does:
/// left clean, bytes flipped, cut anywhere, or bytes appended.
void corrupt_like_trial(std::string& data, int trial,
                        util::Xoshiro256ss& rng) {
  switch (trial % 4) {
    case 0:  // clean
      break;
    case 1:  // flipped bytes
      for (int flips = 0; flips < 1 + static_cast<int>(rng.bounded(3));
           ++flips) {
        data[rng.bounded(data.size())] ^=
            static_cast<char>(1 + rng.bounded(255));
      }
      break;
    case 2:  // cut anywhere
      data.resize(1 + rng.bounded(data.size()));
      break;
    default:  // appended bytes, sometimes led by gzip magic
      data += (rng.bounded(2) == 0 ? std::string("\x1f\x8b") : "") +
              random_bytes(rng, rng.bounded(40));
      break;
  }
}

void expect_serial_outcome(const std::string& data, int trial) {
  const std::string expected = gunzip_reference(data);
  const std::string actual = gunzip_outcome(data);
  EXPECT_TRUE(actual == expected)
      << "trial " << trial << ": expected " << expected.substr(0, 40)
      << ", got " << actual.substr(0, 40);
}

TEST(ParserRobustness, MultiMemberGzipMatchesSerialDecoderUnderCorruption) {
  // Random multi-member files — stored and compressed members, empty ones,
  // payloads carrying fake member headers or whole members — hit by byte
  // flips, cuts and appended bytes. Output or reason must equal the serial oracle's.
  util::Xoshiro256ss rng(6);
  const std::string fake = std::string("\x1f\x8b\x08\x00", 4);
  for (int trial = 0; trial < 300; ++trial) {
    std::string data;
    const std::size_t members = 1 + rng.bounded(7);
    for (std::size_t m = 0; m < members; ++m) {
      std::string payload = random_printable(rng, rng.bounded(3000));
      if (rng.bounded(3) == 0 && !payload.empty()) {
        // A fake member header, or a whole member, inside the payload.
        payload.insert(rng.bounded(payload.size()),
                       rng.bounded(2) == 0
                           ? fake
                           : gzip_compress(random_printable(rng, 50)));
      }
      data += gzip_compress(payload, static_cast<int>(rng.bounded(10)));
    }
    corrupt_like_trial(data, trial, rng);
    expect_serial_outcome(data, trial);
  }
  // The shapes the trailer-sized layout must see through: a member that
  // deflates past the 16x an ISIZE may claim, and a fake header or whole
  // member led by four bytes that read as a plausible ISIZE.
  util::Xoshiro256ss shapes(7);
  for (int trial = 0; trial < 200; ++trial) {
    std::string data;
    const std::size_t members = 1 + shapes.bounded(6);
    for (std::size_t m = 0; m < members; ++m) {
      std::string payload = random_printable(shapes, shapes.bounded(3000));
      int level = static_cast<int>(shapes.bounded(10));
      switch (shapes.bounded(3)) {
        case 0: {  // one record repeated: deflates ~100-1000x
          const std::string record =
              "@r" + std::to_string(m) + "\nACGT\n+\nIIII\n";
          payload.clear();
          const std::size_t copies = 100 + shapes.bounded(4000);
          for (std::size_t i = 0; i < copies; ++i) payload += record;
          level = 1 + static_cast<int>(shapes.bounded(9));
          break;
        }
        case 1: {  // plausible ISIZE, then a fake header or a whole member
          std::string isize(4, '\0');
          isize[0] = static_cast<char>(shapes.bounded(256));
          isize[1] = static_cast<char>(shapes.bounded(2));
          payload.insert(shapes.bounded(payload.size() + 1),
                         isize + (shapes.bounded(2) == 0
                                      ? fake
                                      : gzip_compress(random_printable(
                                            shapes, shapes.bounded(200)))));
          level = shapes.bounded(2) == 0 ? 0 : level;
          break;
        }
        default:
          break;
      }
      data += gzip_compress(payload, level);
    }
    corrupt_like_trial(data, trial, shapes);
    expect_serial_outcome(data, 300 + trial);
  }
}

TEST(ParserRobustness, TruncatedFastqAlwaysThrows) {
  const std::string full = "@r1\nACGT\n+\nIIII\n";
  for (std::size_t cut = 1; cut < full.size(); ++cut) {
    std::istringstream in(full.substr(0, cut));
    try {
      const auto records = read_fastq(in);
      // A prefix that happens to parse must contain at most the one record.
      EXPECT_LE(records.size(), 1u);
    } catch (const ParseError&) {
    }
  }
}

TEST(ParserRobustness, TruncatedGzipThrowsAtEveryCutPoint) {
  const std::string payload = ">r1\nACGTACGTACGTACGT\n>r2\nTTTTGGGGCCCCAAAA\n";
  const std::string full = gzip_compress(payload);
  ASSERT_EQ(gzip_decompress(full), payload);
  for (std::size_t cut = 1; cut < full.size(); ++cut) {
    EXPECT_THROW((void)gzip_decompress(full.substr(0, cut)),
                 std::runtime_error)
        << "cut at byte " << cut << " of " << full.size();
  }
}

TEST(ParserRobustness, ReadSequencesFileOnTruncatedGzipThrowsParseError) {
  const std::string payload = ">r1\nACGTACGTACGT\n";
  const std::string full = gzip_compress(payload);
  const std::string path = ::testing::TempDir() + "/jem_truncated.fa.gz";
  {
    std::ofstream out(path, std::ios::binary);
    out.write(full.data(),
              static_cast<std::streamsize>(full.size() / 2));  // cut in half
  }
  EXPECT_THROW((void)read_sequences_file(path), ParseError);
}

TEST(ParserRobustness, CrlfFastaAndFastqParseIdenticallyToLf) {
  std::istringstream fasta("  \r\n>r1 extra\r\nACGT\r\nTTTT\r\n>r2\r\nGGGG\r\n");
  const auto fa = read_sequences(fasta);
  ASSERT_EQ(fa.size(), 2u);
  EXPECT_EQ(fa[0].name, "r1");
  EXPECT_EQ(fa[0].bases, "ACGTTTTT");
  EXPECT_EQ(fa[1].bases, "GGGG");

  std::istringstream fastq("@q1\r\nACGT\r\n+\r\nIIII\r\n");
  const auto fq = read_sequences(fastq);
  ASSERT_EQ(fq.size(), 1u);
  EXPECT_EQ(fq[0].name, "q1");
  EXPECT_EQ(fq[0].bases, "ACGT");
}

TEST(ParserRobustness, MidRecordEofFastaThrowsNeverAborts) {
  // A header with no sequence — at the end or the middle — is an error the
  // caller can catch, not a crash or a silently empty record.
  for (const char* broken : {">r1\n", ">r1\nACGT\n>r2\n", ">r1\n>r2\nACGT\n"}) {
    std::istringstream in(broken);
    EXPECT_THROW((void)read_fasta(in), ParseError) << "input: " << broken;
  }
  // But a final record missing only the trailing newline is fine.
  std::istringstream ok(">r1\nACGT");
  const auto records = read_fasta(ok);
  ASSERT_EQ(records.size(), 1u);
  EXPECT_EQ(records[0].bases, "ACGT");
}

}  // namespace
}  // namespace jem::io
