// The whole-member gzip decoder against zlib. The rule every case checks:
// inflate_member returns true only for a member zlib decodes to the same
// bytes, and it decodes every member zlib's own deflate writes except ones
// with a header CRC (FHCRC), which it declines.
#include "io/inflate.hpp"

#include <gtest/gtest.h>

#include <zlib.h>

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "io/gzip.hpp"
#include "obs/metrics.hpp"
#include "util/prng.hpp"

namespace jem::io {
namespace {

/// Header fields a member carries, set through deflateSetHeader.
struct Header {
  std::string name;     // FNAME when not empty
  std::string comment;  // FCOMMENT when not empty
  std::string extra;    // FEXTRA when not empty
  bool hcrc = false;    // FHCRC
};

/// One gzip member deflated by zlib at `level` with `strategy`.
std::string deflate_member(const std::string& payload, int level,
                           int strategy = Z_DEFAULT_STRATEGY,
                           const Header& header = {}) {
  z_stream stream{};
  EXPECT_EQ(deflateInit2(&stream, level, Z_DEFLATED, 15 + 16, 8, strategy),
            Z_OK);
  gz_header head{};
  std::string name = header.name, comment = header.comment,
              extra = header.extra;
  head.os = 3;
  if (!name.empty()) head.name = reinterpret_cast<Bytef*>(name.data());
  if (!comment.empty()) {
    head.comment = reinterpret_cast<Bytef*>(comment.data());
  }
  if (!extra.empty()) {
    head.extra = reinterpret_cast<Bytef*>(extra.data());
    head.extra_len = static_cast<uInt>(extra.size());
  }
  head.hcrc = header.hcrc ? 1 : 0;
  EXPECT_EQ(deflateSetHeader(&stream, &head), Z_OK);
  std::string out(deflateBound(&stream, payload.size()) + 64, '\0');
  stream.next_in =
      reinterpret_cast<Bytef*>(const_cast<char*>(payload.data()));
  stream.avail_in = static_cast<uInt>(payload.size());
  stream.next_out = reinterpret_cast<Bytef*>(out.data());
  stream.avail_out = static_cast<uInt>(out.size());
  EXPECT_EQ(deflate(&stream, Z_FINISH), Z_STREAM_END);
  out.resize(stream.total_out);
  deflateEnd(&stream);
  return out;
}

/// zlib's verdict on `member` as a whole: its bytes if zlib ends the member
/// exactly at the input's end with the trailer matching, else nothing.
std::optional<std::string> zlib_inflate(const std::string& member) {
  z_stream stream{};
  if (inflateInit2(&stream, 15 + 16) != Z_OK) return std::nullopt;
  std::string out;
  stream.next_in = reinterpret_cast<Bytef*>(const_cast<char*>(member.data()));
  stream.avail_in = static_cast<uInt>(member.size());
  int rc = Z_OK;
  while (rc == Z_OK) {
    char chunk[1 << 14];
    stream.next_out = reinterpret_cast<Bytef*>(chunk);
    stream.avail_out = sizeof chunk;
    rc = inflate(&stream, Z_NO_FLUSH);
    out.append(chunk, sizeof chunk - stream.avail_out);
    if (rc == Z_BUF_ERROR && stream.avail_in == 0) break;
    if (rc == Z_BUF_ERROR) rc = Z_OK;  // output chunk was full
  }
  const bool ok = rc == Z_STREAM_END && stream.avail_in == 0;
  inflateEnd(&stream);
  if (!ok) return std::nullopt;
  return out;
}

/// Runs the decoder into a buffer of exactly `size` bytes (so ASan sees any
/// write outside it); its bytes on success.
std::optional<std::string> decode(const std::string& member,
                                  std::size_t size) {
  const auto buffer = std::make_unique<char[]>(size);
  if (!inflate_member(member, buffer.get(), size)) return std::nullopt;
  return std::string(buffer.get(), size);
}

/// As decode(), with `before` in the bytes right before the output, as an
/// earlier member's bytes precede a slot in gzip_decompress's buffer.
std::optional<std::string> decode_after(const std::string& before,
                                        const std::string& member,
                                        std::size_t size) {
  std::string buffer = before + std::string(size, '\0');
  if (!inflate_member(member, buffer.data() + before.size(), size)) {
    return std::nullopt;
  }
  return buffer.substr(before.size());
}

/// The trailer's ISIZE, as the multi-member layout sizes a slot.
std::size_t trailer_size(const std::string& member) {
  std::size_t isize = 0;
  for (std::size_t i = 1; i <= 4 && i <= member.size(); ++i) {
    isize = isize << 8 | static_cast<unsigned char>(member[member.size() - i]);
  }
  return isize;
}

/// The differential rule: true only where zlib agrees, byte for byte.
void expect_never_accepts_more_than_zlib(const std::string& member,
                                         const std::string& what) {
  const std::optional<std::string> oracle = zlib_inflate(member);
  std::vector<std::size_t> sizes = {trailer_size(member)};
  if (oracle) sizes.push_back(oracle->size());
  for (const std::size_t size : sizes) {
    if (size > 16 * member.size() + 1024) continue;  // as the layout caps it
    const std::optional<std::string> got = decode(member, size);
    if (!got) continue;
    ASSERT_TRUE(oracle.has_value()) << what << ": accepted what zlib rejects";
    ASSERT_TRUE(*got == *oracle) << what << ": bytes differ from zlib's";
  }
}

std::string fastq_like(std::size_t length, std::uint64_t seed) {
  util::Xoshiro256ss rng(seed);
  std::string text;
  for (std::size_t read = 0; text.size() < length; ++read) {
    const std::size_t bases = 50 + rng.bounded(400);
    text += "@read" + std::to_string(read) + "\n";
    for (std::size_t i = 0; i < bases; ++i) text += "ACGT"[rng.bounded(4)];
    text += "\n+\n";
    for (std::size_t i = 0; i < bases; ++i) {
      text += static_cast<char>('5' + rng.bounded(10) / 8 * 20);
    }
    text += "\n";
  }
  text.resize(length);
  return text;
}

std::string random_bytes(std::size_t length, std::uint64_t seed) {
  util::Xoshiro256ss rng(seed);
  std::string text(length, '\0');
  for (char& c : text) c = static_cast<char>(rng.bounded(256));
  return text;
}

/// Runs of one byte and short periods (2-7, then 8-40 bytes), so matches
/// take every copy path: fill, overlapping short period, 8-byte words.
std::string runs(std::size_t length, std::uint64_t seed) {
  util::Xoshiro256ss rng(seed);
  std::string text;
  while (text.size() < length) {
    const std::size_t period = 1 + rng.bounded(rng.bounded(2) == 0 ? 7 : 40);
    std::string unit;
    for (std::size_t i = 0; i < period; ++i) unit += "xyzw!"[rng.bounded(5)];
    for (std::size_t n = rng.bounded(600); n > 0; --n) text += unit;
  }
  text.resize(length);
  return text;
}

constexpr std::size_t kSizes[] = {0,         1,         258,
                                  32767,     32768,     32769,
                                  65535,     65536,     65537};

struct Setting {
  int level;
  int strategy;
};
constexpr Setting kSettings[] = {
    {0, Z_DEFAULT_STRATEGY}, {1, Z_DEFAULT_STRATEGY}, {6, Z_DEFAULT_STRATEGY},
    {9, Z_DEFAULT_STRATEGY}, {6, Z_FIXED},            {6, Z_RLE},
    {6, Z_HUFFMAN_ONLY}};

TEST(Inflate, DecodesEveryLevelAndStrategyLikeZlib) {
  for (const std::size_t size : kSizes) {
    const std::string payloads[] = {fastq_like(size, size),
                                    random_bytes(size, size + 1),
                                    runs(size, size + 2)};
    for (const std::string& payload : payloads) {
      for (const Setting& s : kSettings) {
        const std::string member = deflate_member(payload, s.level, s.strategy);
        const std::optional<std::string> got = decode(member, payload.size());
        ASSERT_TRUE(got.has_value()) << "size " << size << " level " << s.level
                                     << " strategy " << s.strategy;
        ASSERT_TRUE(*got == payload);
      }
    }
  }
}

TEST(Inflate, DecodesMegabytePayloadsThroughTheFastLoop) {
  const std::string payloads[] = {fastq_like(1 << 20, 3), runs(1 << 20, 4)};
  for (const std::string& payload : payloads) {
    for (const int level : {1, 6, 9}) {
      const std::optional<std::string> got =
          decode(deflate_member(payload, level), payload.size());
      ASSERT_TRUE(got.has_value()) << "level " << level;
      ASSERT_TRUE(*got == payload) << "level " << level;
    }
  }
}

TEST(Inflate, ReadsHeaderNameCommentAndExtraFields) {
  const std::string payload = fastq_like(5000, 9);
  // bgzip's extra field: subfield "BC", 2 bytes, the member size - 1.
  const std::string bgzf("BC\x02\x00\x34\x12", 6);
  const Header headers[] = {{"reads.fq", "", "", false},
                            {"", "a comment", "", false},
                            {"", "", bgzf, false},
                            {"reads.fq", "a comment", bgzf, false}};
  for (const Header& header : headers) {
    const std::string member = deflate_member(payload, 6,
                                              Z_DEFAULT_STRATEGY, header);
    const std::optional<std::string> got = decode(member, payload.size());
    ASSERT_TRUE(got.has_value()) << header.name << "|" << header.comment;
    EXPECT_TRUE(*got == payload);
  }
}

TEST(Inflate, DeclinesAHeaderCrcThatZlibAccepts) {
  const std::string payload = fastq_like(3000, 10);
  const std::string member =
      deflate_member(payload, 6, Z_DEFAULT_STRATEGY, {"n", "", "", true});
  ASSERT_EQ(zlib_inflate(member), payload);
  EXPECT_FALSE(decode(member, payload.size()).has_value());
}

TEST(Inflate, RejectsAnySizeButTheMembersOwn) {
  const std::string payload = fastq_like(10'000, 11);
  const std::string member = deflate_member(payload, 6);
  EXPECT_FALSE(decode(member, payload.size() - 1).has_value());
  EXPECT_FALSE(decode(member, payload.size() + 1).has_value());
  // Bytes after the trailer, or one trailer byte short.
  EXPECT_FALSE(decode(member + '\0', payload.size()).has_value());
  EXPECT_FALSE(
      decode(member.substr(0, member.size() - 1), payload.size()).has_value());
}

/// Deflate bits, least significant bit first, packed into a gzip member.
class BitWriter {
 public:
  void put(std::uint32_t value, unsigned bits) {
    for (unsigned i = 0; i < bits; ++i) {
      if (used_ % 8 == 0) bytes_ += '\0';
      bytes_.back() = static_cast<char>(
          static_cast<unsigned char>(bytes_.back()) | ((value >> i) & 1)
                                                          << (used_ % 8));
      ++used_;
    }
  }
  /// A Huffman codeword, most significant bit first.
  void code(std::uint32_t codeword, unsigned bits) {
    for (unsigned i = bits; i-- > 0;) put(codeword >> i & 1, 1);
  }
  /// A fixed-code literal/length symbol (RFC 1951 section 3.2.6).
  void fixed_symbol(unsigned symbol) {
    if (symbol < 144) code(0x30 + symbol, 8);
    else if (symbol < 256) code(0x190 + symbol - 144, 9);
    else if (symbol < 280) code(symbol - 256, 7);
    else code(0xc0 + symbol - 280, 8);
  }
  /// The member: a plain header, these bits, then a trailer for `output`.
  [[nodiscard]] std::string member(const std::string& output) const {
    std::string out("\x1f\x8b\x08\x00\x00\x00\x00\x00\x00\xff", 10);
    out += bytes_;
    const auto crc = static_cast<std::uint32_t>(crc32_z(
        0, reinterpret_cast<const Bytef*>(output.data()), output.size()));
    for (const std::uint32_t word :
         {crc, static_cast<std::uint32_t>(output.size())}) {
      for (int i = 0; i < 4; ++i) out += static_cast<char>(word >> 8 * i);
    }
    return out;
  }

 private:
  std::string bytes_;
  std::size_t used_ = 0;
};

TEST(Inflate, HandBuiltFixedBlocksDecodeLikeZlib) {
  // "ab" then a 10-byte match at distance 2 (an overlapping short period),
  // in a final fixed block.
  BitWriter good;
  good.put(1, 1);
  good.put(1, 2);
  good.fixed_symbol('a');
  good.fixed_symbol('b');
  good.fixed_symbol(264);  // length 10
  good.code(1, 5);         // distance 2
  good.fixed_symbol(256);
  const std::string output = "abababababab";
  ASSERT_EQ(zlib_inflate(good.member(output)), output);
  EXPECT_EQ(decode(good.member(output), output.size()), output);
}

TEST(Inflate, RejectsTheDefectsZlibRejects) {
  std::vector<std::pair<std::string, std::string>> members;
  {  // literal/length symbol 286 exists only in the fixed code's table
    BitWriter w;
    w.put(1, 1);
    w.put(1, 2);
    w.fixed_symbol('a');
    w.fixed_symbol(286);
    members.emplace_back("symbol 286", w.member("a"));
  }
  {  // distance symbol 30
    BitWriter w;
    w.put(1, 1);
    w.put(1, 2);
    w.fixed_symbol('a');
    w.fixed_symbol(257);
    w.code(30, 5);
    members.emplace_back("distance 30", w.member("aaaa"));
  }
  {  // reserved block type 3
    BitWriter w;
    w.put(1, 1);
    w.put(3, 2);
    members.emplace_back("block type 3", w.member(""));
  }
  {  // stored block whose NLEN is not LEN's complement
    BitWriter w;
    w.put(1, 1);
    w.put(0, 2);
    w.put(0, 5);
    w.put(1, 16);
    w.put(0x0000, 16);
    w.put('z', 8);
    members.emplace_back("stored NLEN", w.member("z"));
  }
  for (const auto& [what, member] : members) {
    EXPECT_FALSE(zlib_inflate(member).has_value()) << what;
    for (std::size_t size = 0; size < 6; ++size) {
      EXPECT_FALSE(decode(member, size).has_value()) << what;
    }
  }
}

TEST(Inflate, MatchesReachNoFurtherBackThanTheMembersOwnOutput) {
  // Matches at distance 3 before any output: zlib rejects them as too far
  // back, even where the bytes before the slot would make the CRC hold.
  // One 3-byte match goes through the tail loop; twenty 258-byte ones
  // leave enough input and output for the fast loop to start.
  for (const unsigned matches : {0u, 20u}) {
    BitWriter w;
    w.put(1, 1);
    w.put(1, 2);
    if (matches == 0) {
      w.fixed_symbol(257);  // length 3
      w.code(2, 5);         // distance 3
    }
    for (unsigned m = 0; m < matches; ++m) {
      w.fixed_symbol(285);  // length 258
      w.code(2, 5);
    }
    w.fixed_symbol(256);
    std::string output;
    while (output.size() < (matches == 0 ? 3 : 258 * matches)) output += "xyz";
    const std::string member = w.member(output);
    EXPECT_FALSE(zlib_inflate(member).has_value()) << matches;
    EXPECT_FALSE(decode_after("xyz", member, output.size()).has_value())
        << matches;
  }
}

/// A final dynamic block with `nlen` literal/length codeword lengths (286
/// is deflate's most, 288 one past what zlib takes) that decodes to "x":
/// literals take 9 bits, symbols 256 and up 6 (or 5, for the last two of
/// 286, to keep the code complete), and two 1-bit distance codewords.
std::string dynamic_member(unsigned nlen) {
  BitWriter w;
  w.put(1, 1);
  w.put(2, 2);
  w.put(nlen - 257, 5);
  w.put(1, 5);   // two distance codes
  w.put(14, 4);  // 18 code-length code lengths, through symbol 1's
  constexpr unsigned kOrder[] = {16, 17, 18, 0, 8, 7, 9, 6, 10,
                                 5,  11, 4,  12, 3, 13, 2, 14, 1};
  for (const unsigned symbol : kOrder) {
    w.put(symbol == 1 || symbol == 5 || symbol == 6 || symbol == 9 ? 2 : 0,
          3);
  }
  // The code-length code: 1 -> 00, 5 -> 01, 6 -> 10, 9 -> 11.
  const auto length = [&](unsigned bits) {
    w.code(bits == 1 ? 0 : bits == 5 ? 1 : bits == 6 ? 2 : 3, 2);
  };
  for (unsigned s = 0; s < nlen; ++s) {
    length(s < 256 ? 9 : nlen == 286 && s >= 284 ? 5 : 6);
  }
  length(1);
  length(1);
  // Canonical codewords: symbol 256 is the first 6-bit one, after the two
  // 5-bit ones when there are any; literal s is 256 + s in 9 bits.
  w.code(256 + 'x', 9);
  w.code(nlen == 286 ? 4 : 0, 6);
  return w.member("x");
}

TEST(Inflate, TakesAtMost286LiteralLengthCodes) {
  ASSERT_EQ(zlib_inflate(dynamic_member(286)), "x");
  EXPECT_EQ(decode(dynamic_member(286), 1), "x");
  EXPECT_FALSE(zlib_inflate(dynamic_member(288)).has_value());
  EXPECT_FALSE(decode(dynamic_member(288), 1).has_value());
}

TEST(Inflate, NeverAcceptsWhatZlibRejectsUnderMutation) {
  // Seeded bit flips, truncations and splices of members of every level
  // and strategy; each mutant is decoded at its trailer's ISIZE and at
  // zlib's output size.
  util::Xoshiro256ss rng(31);
  std::vector<std::string> members;
  for (const Setting& s : kSettings) {
    const std::size_t size = 200 + rng.bounded(3000);
    members.push_back(deflate_member(fastq_like(size, rng()), s.level,
                                     s.strategy));
    members.push_back(deflate_member(runs(size, rng()), s.level, s.strategy,
                                     {"x.fq", "", "", false}));
  }
  std::size_t accepted = 0;
  for (int trial = 0; trial < 3000; ++trial) {
    const std::string& base = members[rng.bounded(members.size())];
    std::string mutant = base;
    switch (trial % 3) {
      case 0:  // 1-3 bit flips
        for (std::size_t n = 1 + rng.bounded(3); n > 0; --n) {
          mutant[rng.bounded(mutant.size())] ^=
              static_cast<char>(1u << rng.bounded(8));
        }
        break;
      case 1:  // cut anywhere
        mutant.resize(rng.bounded(mutant.size()));
        break;
      default: {  // a prefix of one member, then a suffix of another
        const std::string& other = members[rng.bounded(members.size())];
        mutant = base.substr(0, rng.bounded(base.size() + 1)) +
                 other.substr(rng.bounded(other.size() + 1));
        break;
      }
    }
    expect_never_accepts_more_than_zlib(mutant,
                                        "trial " + std::to_string(trial));
    if (HasFatalFailure()) return;
    accepted += zlib_inflate(mutant).has_value() ? 1 : 0;
  }
  // Bit flips in the header's ignored fields (MTIME, XFL, OS) and splices at
  // equal offsets leave valid members: the rule was exercised both ways.
  EXPECT_GT(accepted, 0u);
}

TEST(Inflate, NamedAndBgzipMembersStayOffTheSerialPath) {
  // gzip(1) writes FNAME, bgzip an FEXTRA "BC" field: both land in their
  // slots, so the stitch decodes nothing serially.
  obs::Counter& serial =
      obs::default_registry().counter("io.gzip.serial_members");
  const std::string bgzf("BC\x02\x00\x00\x00", 6);
  std::string data;
  std::string expected;
  for (int m = 0; m < 4; ++m) {
    const std::string payload = fastq_like(40'000 + 1000 * m, 50 + m);
    data += deflate_member(payload, 6, Z_DEFAULT_STRATEGY,
                           m % 2 == 0 ? Header{"reads.fq", "", "", false}
                                      : Header{"", "", bgzf, false});
    expected += payload;
  }
  const std::uint64_t before = serial.value();
  EXPECT_TRUE(gzip_decompress(data) == expected);
  EXPECT_EQ(serial.value(), before);
}

}  // namespace
}  // namespace jem::io
