// gzip (RFC 1952) support: real long-read data ships as .fastq.gz, so the
// readers transparently accept gzip-compressed files.
//
// Decompression is integrity-checked end to end: each member's trailer
// (CRC32 of the uncompressed bytes + ISIZE) is verified, and every
// defect — a truncated stream, a corrupt deflate block, a trailer whose
// CRC or length disagrees, bytes after the last member that are not
// another gzip member — surfaces as a structured GzipError naming what
// went wrong, never as silently short or wrong output. Multi-member files
// (concatenated .gz, as produced by `cat a.gz b.gz` and bgzip-like tools)
// decode to the concatenation of their members, matching gzip(1).
//
// Members are inflated in parallel straight into one output buffer, laid
// out from their ISIZE trailers: a header candidate becomes a member
// boundary only if the four bytes before it claim at most 16 output bytes
// per compressed byte since the previous boundary, so the buffer never
// exceeds 16x the input whatever a trailer says. Each slot is inflated by
// the whole-member decoder (io/inflate.hpp), which decodes only members
// zlib decodes to the same bytes. When every member fills its slot exactly
// and ends at the next boundary, that buffer is the output. Otherwise an
// in-order pass walks the real member chain, copies each member that
// landed in its slot and decodes every other one again with zlib,
// serially. Either way output and GzipReason are those of a serial zlib
// decode.
#pragma once

#include <stdexcept>
#include <string>
#include <string_view>

namespace jem::io {

/// Why a gzip stream could not be decoded.
enum class GzipReason {
  kInitFailed,       // zlib could not allocate an inflate state
  kTruncated,        // input ends mid-member (missing data or trailer)
  kBadData,          // corrupt deflate block / bad gzip header
  kBadCrc,           // member trailer CRC32 disagrees with the output
  kBadLength,        // member trailer ISIZE disagrees with the output
  kTrailingGarbage,  // bytes after the final member are not a gzip member
};

/// Human-readable name of a reason ("truncated", "bad-crc", ...).
[[nodiscard]] std::string_view gzip_reason_name(GzipReason reason) noexcept;

class GzipError : public std::runtime_error {
 public:
  GzipError(GzipReason reason, std::string detail)
      : std::runtime_error(std::string("gzip ") +
                           std::string(gzip_reason_name(reason)) + ": " +
                           detail),
        reason_(reason) {}

  [[nodiscard]] GzipReason reason() const noexcept { return reason_; }

 private:
  GzipReason reason_;
};

/// True if the buffer starts with the gzip magic bytes (0x1f 0x8b).
[[nodiscard]] bool is_gzip(std::string_view data) noexcept;

/// Inflates a whole gzip stream (all members of a multi-member file), on up
/// to one thread per member and hardware thread whatever thread count the
/// caller maps with. Throws GzipError on any defect; see the file header
/// for the taxonomy.
[[nodiscard]] std::string gzip_decompress(std::string_view data);

/// Deflates to a gzip stream (used by tests and the demo writers).
[[nodiscard]] std::string gzip_compress(std::string_view data,
                                        int level = 6);

/// Reads a whole file, in one read when its size is known; transparently
/// decompresses when gzip-compressed.
/// Throws std::runtime_error when the file cannot be opened and GzipError
/// when it is gzip but corrupt.
[[nodiscard]] std::string read_file_auto(const std::string& path);

}  // namespace jem::io
