// Sequential oracle for the multi-read mapping tests: an explicit loop over
// a range of reads that cuts each read into segments and maps them one at
// a time with JemMapper::map_segment / map_segment_topx on one scratch.
// MappingEngine::run, run_stream and the distributed drivers are checked
// against this loop, never against themselves.
#pragma once

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "core/end_segments.hpp"
#include "core/mapper.hpp"
#include "io/sequence_set.hpp"

namespace jem::oracle {

/// Maps the end segments (or, with `tiled`, the whole-read tiles) of reads
/// [begin, end). Read ids are global.
inline std::vector<core::SegmentMapping> map_reads(
    const core::JemMapper& mapper, const io::SequenceSet& reads,
    io::SeqId begin, io::SeqId end, bool tiled = false) {
  core::MapScratch scratch(mapper.subjects().size());
  const std::uint32_t length = mapper.params().segment_length;
  std::vector<core::SegmentMapping> mappings;
  for (io::SeqId read = begin; read < end; ++read) {
    const auto segments =
        tiled ? core::extract_tiled_segments(read, reads.bases(read), length)
              : core::extract_end_segments(read, reads.bases(read), length);
    for (const core::EndSegment& segment : segments) {
      core::SegmentMapping mapping;
      mapping.read = read;
      mapping.end = segment.end;
      mapping.offset = segment.offset;
      mapping.segment_length =
          static_cast<std::uint32_t>(segment.bases.size());
      mapping.result = mapper.map_segment(segment.bases, scratch);
      mappings.push_back(mapping);
    }
  }
  return mappings;
}

/// The end segments of every read.
inline std::vector<core::SegmentMapping> map_reads(
    const core::JemMapper& mapper, const io::SequenceSet& reads) {
  return map_reads(mapper, reads, 0, static_cast<io::SeqId>(reads.size()));
}

/// The whole-read tiles of reads [begin, end) (containment mode).
inline std::vector<core::SegmentMapping> map_reads_tiled(
    const core::JemMapper& mapper, const io::SequenceSet& reads,
    io::SeqId begin, io::SeqId end) {
  return map_reads(mapper, reads, begin, end, /*tiled=*/true);
}

/// Up to `x` candidates for each end segment of reads [begin, end).
inline std::vector<core::SegmentTopX> map_reads_topx(
    const core::JemMapper& mapper, const io::SequenceSet& reads,
    std::size_t x, io::SeqId begin, io::SeqId end) {
  core::MapScratch scratch(mapper.subjects().size());
  const std::uint32_t length = mapper.params().segment_length;
  std::vector<core::SegmentTopX> mappings;
  for (io::SeqId read = begin; read < end; ++read) {
    for (const core::EndSegment& segment :
         core::extract_end_segments(read, reads.bases(read), length)) {
      core::SegmentTopX mapping;
      mapping.read = read;
      mapping.end = segment.end;
      mapping.segment_length =
          static_cast<std::uint32_t>(segment.bases.size());
      mapping.hits = mapper.map_segment_topx(segment.bases, x, scratch);
      mappings.push_back(std::move(mapping));
    }
  }
  return mappings;
}

}  // namespace jem::oracle
