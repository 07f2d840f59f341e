#include "core/end_segments.hpp"

#include <algorithm>

namespace jem::core {

std::vector<EndSegment> extract_end_segments(io::SeqId read,
                                             std::string_view bases,
                                             std::uint32_t segment_length) {
  std::vector<EndSegment> segments;
  if (bases.empty() || segment_length == 0) return segments;

  if (bases.size() <= segment_length) {
    segments.push_back({read, ReadEnd::kPrefix, 0, bases});
    return segments;
  }

  segments.push_back(
      {read, ReadEnd::kPrefix, 0, bases.substr(0, segment_length)});
  const auto suffix_offset =
      static_cast<std::uint32_t>(bases.size() - segment_length);
  segments.push_back({read, ReadEnd::kSuffix, suffix_offset,
                      bases.substr(suffix_offset, segment_length)});
  return segments;
}

std::vector<EndSegment> extract_tiled_segments(io::SeqId read,
                                               std::string_view bases,
                                               std::uint32_t segment_length) {
  std::vector<EndSegment> segments;
  if (bases.empty() || segment_length == 0) return segments;

  if (bases.size() <= segment_length) {
    segments.push_back({read, ReadEnd::kPrefix, 0, bases});
    return segments;
  }

  // Full tiles from the left; the final tile is right-aligned (it may
  // overlap its predecessor) so no read suffix is left unsampled.
  std::uint32_t offset = 0;
  const auto length = static_cast<std::uint32_t>(bases.size());
  while (offset + segment_length < length) {
    const ReadEnd tag = offset == 0 ? ReadEnd::kPrefix : ReadEnd::kInterior;
    segments.push_back(
        {read, tag, offset, bases.substr(offset, segment_length)});
    offset += segment_length;
  }
  const std::uint32_t last_offset = length - segment_length;
  segments.push_back({read, ReadEnd::kSuffix, last_offset,
                      bases.substr(last_offset, segment_length)});
  return segments;
}

std::size_t segment_count(std::size_t length, std::uint32_t segment_length,
                          bool tiled) noexcept {
  if (length == 0 || segment_length == 0) return 0;
  const std::size_t tiles = (length - 1) / segment_length + 1;
  return tiled ? tiles : std::min<std::size_t>(tiles, 2);
}

}  // namespace jem::core
