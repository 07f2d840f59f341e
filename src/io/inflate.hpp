// Whole-member gzip decoder: one gzip member (RFC 1952 header, RFC 1951
// deflate blocks, CRC32 + ISIZE trailer) inflated from a buffer that holds
// all of it into an output buffer of the size its trailer states.
//
// It is built for speed the way libdeflate is: a 64-bit bit buffer refilled
// with unaligned 8-byte loads, table-driven Huffman decoding whose entries
// carry each length's and distance's base and extra-bit count, and a fast
// loop that copies matches 8 bytes at a time while the output has room for
// the longest match plus a word. The last few hundred bytes of output go
// through a bounds-checked loop. Each block's output is folded into the
// trailer's CRC32 (io::crc32) right after the block, while it is in cache.
//
// The decoder is a fast path in front of zlib, not a second gzip
// implementation with its own error taxonomy: it answers only "decoded" or
// "not decoded". It decodes a member only if zlib would decode it to the
// same bytes; it may decline a member zlib accepts (a header with FHCRC, a
// Huffman code that does not fill its code space) and then the caller
// decodes that member with zlib, which also names every defect.
#pragma once

#include <cstddef>
#include <string_view>

namespace jem::io {

/// Inflates the single gzip member that is all of `member` (header, deflate
/// data and trailer, nothing after it) into exactly `size` bytes at `out`.
/// True only if the member's deflate data ends right before its trailer,
/// yields `size` bytes, and the trailer's CRC32 and ISIZE match them. On
/// false the bytes at `out` are unspecified; none outside [out, out + size)
/// is written either way.
[[nodiscard]] bool inflate_member(std::string_view member, char* out,
                                  std::size_t size) noexcept;

}  // namespace jem::io
