#include "io/inflate.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <cstdint>
#include <cstring>

#include "io/crc32.hpp"

namespace jem::io {
namespace {

// A decode table entry, 32 bits:
//   bits 0-7    bits the entry consumes: its codewords and, for a length or
//               a distance, the extra bits after the codeword (in a
//               subtable, counted past the primary table's bits)
//   bits 8-11   a length's or distance's codeword bits (where its extra
//               bits start), the number of literals (1 or 2), or the index
//               bits of the subtable an entry points to
//   bits 12-15  kind: literal, end of block, subtable pointer or invalid;
//               none of them for a length or a distance
//   bits 16-31  literal byte(s), length or distance base, or subtable
//               offset
// A primary literal/length entry whose literal codeword leaves room in the
// table's bits for a second literal's codeword decodes both: sequence text
// codes its bases in 2-3 bits, so most lookups there yield two bytes.
constexpr std::uint32_t kLiteral = 1u << 12;
constexpr std::uint32_t kEndOfBlock = 1u << 13;
constexpr std::uint32_t kSubtable = 1u << 14;
constexpr std::uint32_t kInvalid = 1u << 15;

/// A symbol's entry before its codeword length is known: bits 8-11 hold
/// a length's or distance's extra-bit count (or a literal count) until
/// table_entry() places the codeword.
constexpr std::uint32_t value_entry(std::uint32_t value, std::uint32_t extra,
                                    std::uint32_t kind = 0) {
  return value << 16 | kind | extra << 8;
}

// Primary table bits. Longer codewords continue in a subtable; the sizes
// are the most a complete code of that many symbols and at most 15-bit
// codewords needs with those primary bits (zlib's `enough` program).
constexpr unsigned kLitlenBits = 11;
constexpr unsigned kDistBits = 8;
constexpr unsigned kPrecodeBits = 7;
constexpr std::size_t kLitlenEnough = 2342;  // 288 symbols
constexpr std::size_t kDistEnough = 402;     // 32 symbols
constexpr std::size_t kPrecodeEnough = 128;  // 19 symbols, codewords <= 7

constexpr unsigned kMaxCodeBits = 15;
constexpr unsigned kMaxLitlenSymbols = 286;  // in a dynamic block
constexpr unsigned kMaxDistSymbols = 30;
constexpr std::size_t kMaxMatch = 258;
// The fast loop runs while the output has room for the longest match plus
// the 8-byte word a copy may write past its end, and while the input holds
// two refills' worth of bytes.
constexpr std::size_t kFastOut = kMaxMatch + 8;
constexpr std::size_t kFastIn = 16;

/// Literal/length symbol -> entry (0-255 literals, 256 end of block,
/// 257-285 lengths; 286 and 287 exist only in the fixed code and are
/// invalid there).
constexpr std::array<std::uint32_t, 288> kLitlenEntries = [] {
  constexpr std::array<std::uint16_t, 29> kBase = {
      3,  4,  5,  6,  7,  8,  9,  10, 11,  13,  15,  17,  19,  23, 27,
      31, 35, 43, 51, 59, 67, 83, 99, 115, 131, 163, 195, 227, 258};
  constexpr std::array<std::uint8_t, 29> kExtra = {
      0, 0, 0, 0, 0, 0, 0, 0, 1, 1, 1, 1, 2, 2, 2,
      2, 3, 3, 3, 3, 4, 4, 4, 4, 5, 5, 5, 5, 0};
  std::array<std::uint32_t, 288> entries{};
  for (std::uint32_t s = 0; s < 256; ++s) {
    entries[s] = value_entry(s, 1, kLiteral);
  }
  entries[256] = kEndOfBlock;
  for (std::uint32_t s = 257; s < 286; ++s) {
    entries[s] = value_entry(kBase[s - 257], kExtra[s - 257]);
  }
  entries[286] = entries[287] = kInvalid;
  return entries;
}();

/// Distance symbol -> entry (30 and 31 exist only in the fixed code and are
/// invalid there).
constexpr std::array<std::uint32_t, 32> kDistEntries = [] {
  constexpr std::array<std::uint16_t, 30> kBase = {
      1,    2,    3,    4,    5,    7,     9,     13,    17,  25,
      33,   49,   65,   97,   129,  193,   257,   385,   513, 769,
      1025, 1537, 2049, 3073, 4097, 6145,  8193,  12289, 16385, 24577};
  std::array<std::uint32_t, 32> entries{};
  for (std::uint32_t s = 0; s < 30; ++s) {
    entries[s] = value_entry(kBase[s], s < 4 ? 0 : s / 2 - 1);
  }
  entries[30] = entries[31] = kInvalid;
  return entries;
}();

/// Code-length symbol -> entry: the symbol itself.
constexpr std::array<std::uint32_t, 19> kPrecodeEntries = [] {
  std::array<std::uint32_t, 19> entries{};
  for (std::uint32_t s = 0; s < 19; ++s) entries[s] = value_entry(s, 0);
  return entries;
}();

std::uint64_t load_le64(const std::uint8_t* p) noexcept {
  std::uint64_t v;
  std::memcpy(&v, p, sizeof v);
  if constexpr (std::endian::native == std::endian::big) v = std::byteswap(v);
  return v;
}

std::uint32_t load_le32(const std::uint8_t* p) noexcept {
  std::uint32_t v;
  std::memcpy(&v, p, sizeof v);
  if constexpr (std::endian::native == std::endian::big) v = std::byteswap(v);
  return v;
}

std::uint32_t load_le16(const std::uint8_t* p) noexcept {
  return static_cast<std::uint32_t>(p[0] | p[1] << 8);
}

/// The table entry of the symbol `base` (from value_entry) whose codeword
/// takes `len` bits.
constexpr std::uint32_t table_entry(std::uint32_t base, unsigned len) {
  if (base & (kLiteral | kEndOfBlock | kInvalid)) return base | len;
  const unsigned extra = base >> 8 & 15;
  return (base & ~0xf00u) | len << 8 | (len + extra);
}

/// Reverses the low `bits` bits of `code`: deflate packs Huffman codewords
/// most significant bit first into a least-significant-bit-first stream.
std::uint32_t reverse_bits(std::uint32_t code, unsigned bits) noexcept {
  std::uint32_t reversed = 0;
  for (unsigned i = 0; i < bits; ++i, code >>= 1) {
    reversed = reversed << 1 | (code & 1);
  }
  return reversed;
}

/// Builds the decode table of the canonical Huffman code whose codeword
/// lengths are `lens[0..count)`, with `entries[s]` the entry of symbol s.
/// False for an over-subscribed code and for an incomplete one (zlib takes
/// one incomplete shape, a single 1-bit codeword; that member falls back to
/// zlib), except that a code with no codewords at all is allowed when
/// `allow_empty` (a block without matches may so code its distances): every
/// entry is then invalid.
bool build_table(const std::uint8_t* lens, unsigned count,
                 const std::uint32_t* entries, unsigned table_bits,
                 std::uint32_t* table, std::size_t capacity,
                 bool allow_empty) noexcept {
  std::array<unsigned, kMaxCodeBits + 1> len_count{};
  for (unsigned s = 0; s < count; ++s) ++len_count[lens[s]];
  if (len_count[0] == count) {
    if (!allow_empty) return false;
    std::fill(table, table + (std::size_t{1} << table_bits), kInvalid);
    return true;
  }
  len_count[0] = 0;
  int left = 1;  // codewords still free at the current length
  for (unsigned len = 1; len <= kMaxCodeBits; ++len) {
    left = 2 * left - static_cast<int>(len_count[len]);
    if (left < 0) return false;
  }
  if (left != 0) return false;

  // Symbols in canonical order (by length, then symbol) and the first
  // codeword of each length (RFC 1951 section 3.2.2).
  std::array<unsigned, kMaxCodeBits + 2> offset{};
  std::array<std::uint32_t, kMaxCodeBits + 1> next_code{};
  for (unsigned len = 1; len <= kMaxCodeBits; ++len) {
    offset[len + 1] = offset[len] + len_count[len];
    next_code[len] = (next_code[len - 1] + len_count[len - 1]) << 1;
  }
  std::array<std::uint16_t, 288> sorted{};
  for (unsigned s = 0; s < count; ++s) {
    if (lens[s] != 0) {
      sorted[offset[lens[s]]++] = static_cast<std::uint16_t>(s);
    }
  }
  const unsigned used = offset[kMaxCodeBits];

  const std::uint32_t primary_mask = (1u << table_bits) - 1;
  std::size_t next_free = std::size_t{1} << table_bits;
  std::uint32_t prefix = ~0u;  // primary index of the open subtable
  std::size_t sub_offset = 0;
  for (unsigned i = 0; i < used; ++i) {
    const unsigned s = sorted[i];
    const unsigned len = lens[s];
    const std::uint32_t code = reverse_bits(next_code[len]++, len);
    --len_count[len];  // now counts the codewords after this one
    if (len <= table_bits) {
      for (std::uint32_t k = code; k <= primary_mask; k += 1u << len) {
        table[k] = table_entry(entries[s], len);
      }
      continue;
    }
    if ((code & primary_mask) != prefix) {
      // A new subtable: just deep enough for the codewords that share this
      // prefix, which in canonical order are this one and the next ones.
      prefix = code & primary_mask;
      unsigned sub_bits = len - table_bits;
      int room = 1 << sub_bits;
      room -= 1 + static_cast<int>(len_count[len]);
      while (room > 0) {
        if (table_bits + ++sub_bits > kMaxCodeBits) return false;
        room = 2 * room - static_cast<int>(len_count[table_bits + sub_bits]);
      }
      sub_offset = next_free;
      next_free += std::size_t{1} << sub_bits;
      if (next_free > capacity) return false;
      table[prefix] = kSubtable | sub_bits << 8 |
                      static_cast<std::uint32_t>(sub_offset) << 16;
    }
    const unsigned sub_len = len - table_bits;
    const unsigned sub_bits = table[prefix] >> 8 & 15;
    for (std::uint32_t k = code >> table_bits; k < (1u << sub_bits);
         k += 1u << sub_len) {
      table[sub_offset + k] = table_entry(entries[s], sub_len);
    }
  }
  return true;
}

/// Makes each primary literal entry whose codeword leaves room for the
/// next literal's codeword decode both. The second codeword's entry sits at
/// the index shifted past the first, always a lower index than the first's
/// (or the same, at index 0), so a descending walk reads it unpaired.
void pair_literals(std::uint32_t* table, unsigned table_bits) noexcept {
  for (std::uint32_t i = (1u << table_bits); i-- > 0;) {
    const std::uint32_t first = table[i];
    if (!(first & kLiteral)) continue;
    const unsigned len = first & 0xff;
    const std::uint32_t second = table[i >> len];
    if (!(second & kLiteral) || len + (second & 0xff) > table_bits) continue;
    table[i] = (first & 0x00ff0000) | (second & 0x00ff0000) << 8 | kLiteral |
               2u << 8 | (len + (second & 0xff));
  }
}

struct FixedTables {
  std::array<std::uint32_t, kLitlenEnough> litlen{};
  std::array<std::uint32_t, kDistEnough> dist{};
};

/// The fixed Huffman code's tables (RFC 1951 section 3.2.6), built once.
const FixedTables& fixed_tables() noexcept {
  static const FixedTables tables = [] {
    FixedTables t;
    std::array<std::uint8_t, 288> lens{};
    std::fill(lens.begin(), lens.begin() + 144, 8);
    std::fill(lens.begin() + 144, lens.begin() + 256, 9);
    std::fill(lens.begin() + 256, lens.begin() + 280, 7);
    std::fill(lens.begin() + 280, lens.end(), 8);
    const std::array<std::uint8_t, 32> dist_lens = [] {
      std::array<std::uint8_t, 32> d{};
      d.fill(5);
      return d;
    }();
    (void)build_table(lens.data(), 288, kLitlenEntries.data(), kLitlenBits,
                      t.litlen.data(), t.litlen.size(), false);
    pair_literals(t.litlen.data(), kLitlenBits);
    (void)build_table(dist_lens.data(), 32, kDistEntries.data(), kDistBits,
                      t.dist.data(), t.dist.size(), false);
    return t;
  }();
  return tables;
}

/// The input as a little-endian bit stream. Past `end` it reads zero bytes
/// and counts them in `overread`: a well-formed member never consumes one,
/// so any that is consumed fails the final position check.
struct BitReader {
  const std::uint8_t* begin;
  const std::uint8_t* in;
  const std::uint8_t* end;
  std::uint64_t buf = 0;
  unsigned left = 0;  // valid bits in `buf`, from bit 0
  std::size_t overread = 0;

  /// Tops the buffer up to at least 56 bits when 8 input bytes remain.
  /// The 8-byte load also sets bits above `left` that the next refill sets
  /// to the same values.
  [[gnu::always_inline]] void refill_fast() noexcept {
    buf |= load_le64(in) << left;
    in += (63 - left) >> 3;
    left |= 56;
  }
  /// Tops the buffer up to at least 56 bits.
  [[gnu::always_inline]] void refill() noexcept {
    if (end - in >= 8) [[likely]] {
      refill_fast();
    } else {
      for (; left < 56; left += 8) {
        if (in < end) {
          buf |= std::uint64_t{*in++} << left;
        } else {
          ++overread;
        }
      }
    }
  }
  [[gnu::always_inline]] std::uint32_t peek(unsigned n) const noexcept {
    return static_cast<std::uint32_t>(buf & ((std::uint64_t{1} << n) - 1));
  }
  [[gnu::always_inline]] void skip(unsigned n) noexcept {
    buf >>= n;
    left -= n;
  }
  [[gnu::always_inline]] std::uint32_t take(unsigned n) noexcept {
    const std::uint32_t v = peek(n);
    skip(n);
    return v;
  }
  /// Drops the rest of a partly read byte and returns the input offset of
  /// the next byte, which lies past `end` if zero bytes were consumed. The
  /// buffer is empty afterwards, so the caller may move `in`.
  std::size_t align() noexcept {
    skip(left & 7);
    const std::size_t at =
        static_cast<std::size_t>(in - begin) + overread - (left >> 3);
    buf = 0;
    left = 0;
    overread = 0;
    return at;
  }
};

/// Decodes one symbol's entry and consumes its codeword with any extra
/// bits; `saved` keeps the buffer from before them, for value_of(). The
/// buffer must hold the codeword and its extra bits.
[[gnu::always_inline]] inline std::uint32_t decode(
    const std::uint32_t* table, unsigned table_bits, BitReader& bits,
    std::uint64_t& saved) noexcept {
  std::uint32_t e = table[bits.peek(table_bits)];
  if (e & kSubtable) [[unlikely]] {
    bits.skip(table_bits);
    e = table[(e >> 16) + bits.peek(e >> 8 & 15)];
  }
  saved = bits.buf;
  bits.skip(e & 0xff);
  return e;
}

/// A length or distance: its base plus the extra bits that follow its
/// codeword in `saved`.
[[gnu::always_inline]] inline std::size_t value_of(
    std::uint32_t e, std::uint64_t saved) noexcept {
  const std::uint64_t field = saved & ((std::uint64_t{1} << (e & 0xff)) - 1);
  return (e >> 16) + static_cast<std::size_t>(field >> (e >> 8 & 15));
}

/// Writes a literal entry's bytes: both bytes of its value, of which the
/// second is the next output's when the entry holds one literal.
[[gnu::always_inline]] inline void store_literals(std::uint8_t*& out,
                                                  std::uint32_t e) noexcept {
  auto bytes = static_cast<std::uint16_t>(e >> 16);
  if constexpr (std::endian::native == std::endian::big) {
    bytes = std::byteswap(bytes);  // the first literal goes first
  }
  std::memcpy(out, &bytes, 2);
  out += e >> 8 & 3;
}

/// Copies a match of `length` bytes from `distance` back. The fast loop's
/// copy: it writes whole 8-byte words, at least 40 bytes and up to 7 past
/// the match, so the loop runs only for a match longer than most are.
[[gnu::always_inline]] inline void copy_match_fast(
    std::uint8_t* dst, std::size_t distance, std::size_t length) noexcept {
  const std::uint8_t* src = dst - distance;
  std::uint8_t* const stop = dst + length;
  if (distance >= 8) {
    // A word's source bytes all precede its destination, so a match that
    // overlaps itself reads bytes the words before it wrote.
    for (int i = 0; i < 5; ++i, src += 8, dst += 8) std::memcpy(dst, src, 8);
    while (dst < stop) {
      std::memcpy(dst, src, 8);
      src += 8;
      dst += 8;
    }
  } else if (distance == 1) {
    const std::uint64_t fill = 0x0101010101010101ull * *src;
    for (int i = 0; i < 5; ++i, dst += 8) std::memcpy(dst, &fill, 8);
    while (dst < stop) {
      std::memcpy(dst, &fill, 8);
      dst += 8;
    }
  } else {
    // Each 8-byte word holds `distance` right bytes, then bytes the next
    // word overwrites.
    do {
      std::memcpy(dst, src, 8);
      src += distance;
      dst += distance;
    } while (dst < stop);
  }
}

/// Reads a dynamic block's code lengths and builds its tables.
bool read_dynamic_tables(BitReader& bits, std::uint32_t* litlen,
                         std::uint32_t* dist) noexcept {
  constexpr std::array<std::uint8_t, 19> kPrecodeOrder = {
      16, 17, 18, 0, 8, 7, 9, 6, 10, 5, 11, 4, 12, 3, 13, 2, 14, 1, 15};
  bits.refill();
  const unsigned nlen = bits.take(5) + 257;
  const unsigned ndist = bits.take(5) + 1;
  const unsigned nprecode = bits.take(4) + 4;
  if (nlen > kMaxLitlenSymbols || ndist > kMaxDistSymbols) return false;
  std::array<std::uint8_t, 19> precode_lens{};
  for (unsigned i = 0; i < nprecode; ++i) {
    bits.refill();
    precode_lens[kPrecodeOrder[i]] = static_cast<std::uint8_t>(bits.take(3));
  }
  std::array<std::uint32_t, kPrecodeEnough> precode{};
  if (!build_table(precode_lens.data(), 19, kPrecodeEntries.data(),
                   kPrecodeBits, precode.data(), precode.size(), false)) {
    return false;
  }

  std::array<std::uint8_t, kMaxLitlenSymbols + kMaxDistSymbols> lens{};
  for (unsigned i = 0; i < nlen + ndist;) {
    bits.refill();
    if (bits.overread > 8) return false;
    std::uint64_t saved;
    const unsigned symbol =
        decode(precode.data(), kPrecodeBits, bits, saved) >> 16;
    if (symbol < 16) {
      lens[i++] = static_cast<std::uint8_t>(symbol);
      continue;
    }
    std::uint8_t value = 0;
    unsigned repeat = 0;
    if (symbol == 16) {
      if (i == 0) return false;
      value = lens[i - 1];
      repeat = 3 + bits.take(2);
    } else if (symbol == 17) {
      repeat = 3 + bits.take(3);
    } else {
      repeat = 11 + bits.take(7);
    }
    if (repeat > nlen + ndist - i) return false;
    std::fill_n(lens.begin() + i, repeat, value);
    i += repeat;
  }
  if (lens[256] == 0) return false;  // no end-of-block code
  if (!build_table(lens.data(), nlen, kLitlenEntries.data(), kLitlenBits,
                   litlen, kLitlenEnough, false)) {
    return false;
  }
  pair_literals(litlen, kLitlenBits);
  return build_table(lens.data() + nlen, ndist, kDistEntries.data(),
                     kDistBits, dist, kDistEnough, true);
}

/// Decodes one Huffman-coded block into [out, out_end), `out_begin` being
/// the member's first output byte (the limit of a match's distance).
[[gnu::always_inline]] inline bool decode_symbols(
    BitReader& bits, const std::uint32_t* litlen, const std::uint32_t* dist,
    std::uint8_t* const out_begin, std::uint8_t*& out,
    std::uint8_t* const out_end) noexcept {
  // Fast loop: no bounds checks but the loop condition. After a refill the
  // buffer holds >= 56 bits. A literal/length codeword (<= 15) with its
  // extra bits (<= 5) and a distance codeword (<= 15) with its extra bits
  // (<= 13) take at most 48; a literal entry and the entry after it take
  // at most 35, and the loop refills before a distance follows them. A
  // literal entry stores two bytes and advances by its count.
  std::uint64_t saved;
  while (static_cast<std::size_t>(out_end - out) >= kFastOut &&
         bits.end - bits.in >= static_cast<std::ptrdiff_t>(kFastIn)) {
    bits.refill_fast();
    std::uint32_t e = decode(litlen, kLitlenBits, bits, saved);
    if (e & kLiteral) {
      store_literals(out, e);
      e = decode(litlen, kLitlenBits, bits, saved);
      if (e & kLiteral) {
        store_literals(out, e);
        continue;
      }
      bits.refill_fast();
    }
    if (e & (kEndOfBlock | kInvalid)) [[unlikely]] {
      return (e & kEndOfBlock) != 0;
    }
    const std::size_t length = value_of(e, saved);
    const std::uint32_t d = decode(dist, kDistBits, bits, saved);
    if (d & kInvalid) [[unlikely]] return false;
    const std::size_t distance = value_of(d, saved);
    if (distance > static_cast<std::size_t>(out - out_begin)) [[unlikely]] {
      return false;
    }
    copy_match_fast(out, distance, length);
    out += length;
  }

  // Tail loop: every write checked against the output's end.
  for (;;) {
    bits.refill();
    if (bits.overread > 8) return false;
    const std::uint32_t e = decode(litlen, kLitlenBits, bits, saved);
    if (e & kLiteral) {
      const unsigned count = e >> 8 & 3;
      if (count > static_cast<std::size_t>(out_end - out)) return false;
      out[0] = static_cast<std::uint8_t>(e >> 16);
      if (count == 2) out[1] = static_cast<std::uint8_t>(e >> 24);
      out += count;
      continue;
    }
    if (e & (kEndOfBlock | kInvalid)) return (e & kEndOfBlock) != 0;
    const std::size_t length = value_of(e, saved);
    const std::uint32_t d = decode(dist, kDistBits, bits, saved);
    if (d & kInvalid) return false;
    const std::size_t distance = value_of(d, saved);
    if (distance > static_cast<std::size_t>(out - out_begin) ||
        length > static_cast<std::size_t>(out_end - out)) {
      return false;
    }
    for (std::size_t i = 0; i < length; ++i) out[i] = out[i - distance];
    out += length;
  }
}

/// decode_symbols() on copies of the reader and the output position. The
/// output is written through byte pointers, which may alias any object in
/// memory: state kept there would be reloaded after every store, while
/// these copies, whose addresses never escape, stay in registers.
bool inflate_block(BitReader& reader, const std::uint32_t* litlen,
                   const std::uint32_t* dist, std::uint8_t* const out_begin,
                   std::uint8_t*& out_pos,
                   std::uint8_t* const out_end) noexcept {
  BitReader bits = reader;
  std::uint8_t* out = out_pos;
  const bool ok = decode_symbols(bits, litlen, dist, out_begin, out, out_end);
  reader = bits;
  out_pos = out;
  return ok;
}

/// The offset of the deflate data after a gzip header zlib would accept,
/// or 0 for a header it would not, or one this decoder declines (FHCRC).
std::size_t header_size(const std::uint8_t* p, std::size_t n) noexcept {
  constexpr std::uint8_t kFhcrc = 0x02, kFextra = 0x04, kFname = 0x08,
                         kFcomment = 0x10, kReserved = 0xe0;
  if (n < 10 || p[0] != 0x1f || p[1] != 0x8b || p[2] != 8) return 0;
  const std::uint8_t flags = p[3];
  if (flags & (kReserved | kFhcrc)) return 0;
  std::size_t at = 10;
  if (flags & kFextra) {
    if (n - at < 2) return 0;
    at += 2 + load_le16(p + at);
    if (at > n) return 0;
  }
  for (const std::uint8_t field : {kFname, kFcomment}) {
    if (!(flags & field)) continue;
    const auto* nul =
        static_cast<const std::uint8_t*>(std::memchr(p + at, 0, n - at));
    if (nul == nullptr) return 0;
    at = static_cast<std::size_t>(nul - p) + 1;
  }
  return at;
}

}  // namespace

bool inflate_member(std::string_view member, char* out_chars,
                    std::size_t size) noexcept {
  const auto* const p = reinterpret_cast<const std::uint8_t*>(member.data());
  const std::size_t n = member.size();
  const std::size_t header = header_size(p, n);
  if (header == 0 || n - header < 8) return false;
  const std::size_t trailer = n - 8;
  if (load_le32(p + trailer + 4) != static_cast<std::uint32_t>(size)) {
    return false;
  }

  auto* const out_begin = reinterpret_cast<std::uint8_t*>(out_chars);
  std::uint8_t* const out_end = out_begin + size;
  std::uint8_t* out = out_begin;
  BitReader bits{p, p + header, p + trailer};
  std::array<std::uint32_t, kLitlenEnough> litlen;
  std::array<std::uint32_t, kDistEnough> dist;
  std::uint32_t crc = 0;
  for (bool final = false; !final;) {
    std::uint8_t* const block_out = out;
    bits.refill();
    if (bits.overread > 8) return false;
    final = bits.take(1) != 0;
    switch (bits.take(2)) {
      case 0: {  // stored: LEN, its complement NLEN, then LEN raw bytes
        std::size_t at = bits.align();
        if (at > trailer || trailer - at < 4) return false;
        const std::uint32_t len = load_le16(p + at);
        if (len != (~load_le16(p + at + 2) & 0xffff)) return false;
        at += 4;
        if (len > trailer - at ||
            len > static_cast<std::size_t>(out_end - out)) {
          return false;
        }
        std::memcpy(out, p + at, len);
        out += len;
        bits.in = p + at + len;
        break;
      }
      case 1: {
        const FixedTables& fixed = fixed_tables();
        if (!inflate_block(bits, fixed.litlen.data(), fixed.dist.data(),
                           out_begin, out, out_end)) {
          return false;
        }
        break;
      }
      case 2:
        if (!read_dynamic_tables(bits, litlen.data(), dist.data()) ||
            !inflate_block(bits, litlen.data(), dist.data(), out_begin, out,
                           out_end)) {
          return false;
        }
        break;
      default:
        return false;  // reserved block type
    }
    // Fold the block's output into the CRC while it is still in cache.
    crc = crc32(crc, std::string_view(
                         reinterpret_cast<const char*>(block_out),
                         static_cast<std::size_t>(out - block_out)));
  }
  if (bits.align() != trailer || out != out_end) return false;
  return crc == load_le32(p + trailer);
}

}  // namespace jem::io
