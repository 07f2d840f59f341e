// End-segment extraction (paper §III-B1): only the first and last ℓ bases of
// a long read are mapped. A read shorter than 2ℓ yields overlapping (or for
// reads <= ℓ, identical) segments; in the degenerate case of len <= ℓ only
// the prefix segment is emitted, covering the whole read.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string_view>
#include <vector>

#include "io/sequence.hpp"

namespace jem::core {

enum class ReadEnd : std::uint8_t { kPrefix = 0, kSuffix = 1, kInterior = 2 };

[[nodiscard]] constexpr char read_end_tag(ReadEnd end) noexcept {
  switch (end) {
    case ReadEnd::kPrefix: return 'P';
    case ReadEnd::kSuffix: return 'S';
    case ReadEnd::kInterior: return 'I';
  }
  return '?';
}

/// One end segment: a view into the read plus its provenance.
struct EndSegment {
  io::SeqId read = 0;
  ReadEnd end = ReadEnd::kPrefix;
  std::uint32_t offset = 0;  // start of the segment within the read
  std::string_view bases;
};

/// Extracts prefix/suffix segments of length ℓ from one read.
[[nodiscard]] std::vector<EndSegment> extract_end_segments(
    io::SeqId read, std::string_view bases, std::uint32_t segment_length);

/// The containment extension the paper notes in §III-B1: tiles the *whole*
/// read with consecutive ℓ-length segments (the last one right-aligned so
/// the read end is always covered), tagging the first as kPrefix, the last
/// as kSuffix, and the rest kInterior. This recovers contigs completely
/// contained in the interior of a long read, which end-segment mapping
/// misses by design.
[[nodiscard]] std::vector<EndSegment> extract_tiled_segments(
    io::SeqId read, std::string_view bases, std::uint32_t segment_length);

/// How many segments extract_tiled_segments (tiled) or extract_end_segments
/// (not tiled) yields for a read of `length` bases, without extracting
/// them: ⌈length / ℓ⌉ tiles, and at most two end segments.
[[nodiscard]] std::size_t segment_count(std::size_t length,
                                        std::uint32_t segment_length,
                                        bool tiled) noexcept;

}  // namespace jem::core
