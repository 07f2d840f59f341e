// MinimapLikeMapper — a seed-and-chain mapper in the style of Minimap2
// (Li 2018), the second comparator the paper discusses (§IV-A: "it follows
// a more classical seed and extend, alignment-based approach, but it also
// benefits from the use of minimizers internally for the seeding step").
// The paper could not compare against Minimap2 head-to-head because it
// reports multiple hits per query; here the best chain is reduced to a top
// hit so all three mappers are directly comparable.
//
// Pipeline (faithful to Minimap2's structure, without base-level extension):
//  1. seeding  — anchors (subject position, query position) from shared
//     canonical minimizers, repeat-masked;
//  2. chaining — per subject and per strand, a dynamic program over anchors
//     sorted by subject position maximizes Σ anchor bonus − gap penalties,
//     with Minimap2's bounded-lookback heuristic;
//  3. report   — the subject of the globally best chain, with the chain's
//     subject span and anchor count.
#pragma once

#include <cstdint>
#include <string_view>
#include <vector>

#include "baseline/winnow_index.hpp"
#include "core/mapper.hpp"
#include "io/paf.hpp"
#include "io/sequence_set.hpp"

namespace jem::baseline {

struct MinimapParams {
  core::MinimizerParams minimizer{15, 10};  // minimap2-ish defaults (w=10)
  std::uint32_t segment_length = 1000;      // end-segment length
  std::uint32_t max_gap = 2000;             // max subject gap between anchors
  std::uint32_t bandwidth = 500;            // max diagonal drift in a chain
  int max_lookback = 50;                    // DP predecessors examined
  std::uint32_t min_chain_anchors = 3;      // report threshold
  std::size_t max_occurrences = 1024;       // repeat mask
};

struct ChainHit {
  io::SeqId subject = io::kInvalidSeqId;
  std::uint32_t subject_begin = 0;  // chain span on the subject
  std::uint32_t subject_end = 0;
  std::uint32_t anchors = 0;        // anchors in the best chain
  double score = 0.0;
  bool reverse = false;             // chain orientation

  [[nodiscard]] bool mapped() const noexcept {
    return subject != io::kInvalidSeqId;
  }
};

class MinimapLikeMapper {
 public:
  MinimapLikeMapper(const io::SequenceSet& subjects, MinimapParams params);

  [[nodiscard]] const MinimapParams& params() const noexcept {
    return params_;
  }
  [[nodiscard]] std::size_t index_postings() const noexcept {
    return index_.postings();
  }

  /// Maps one query segment to its best chain.
  [[nodiscard]] ChainHit map_segment(std::string_view segment) const;

  /// Maps end segments of all reads, in the shared SegmentMapping format
  /// (votes carries the chain's anchor count).
  [[nodiscard]] std::vector<core::SegmentMapping> map_reads(
      const io::SequenceSet& reads, io::SeqId begin, io::SeqId end) const;
  [[nodiscard]] std::vector<core::SegmentMapping> map_reads(
      const io::SequenceSet& reads) const;

  /// Maps end segments of all reads and emits one PAF record per mapped
  /// segment (coordinates from the best chain; matches approximated by
  /// anchors * k; mapq from the chain score).
  [[nodiscard]] std::vector<io::PafRecord> map_reads_paf(
      const io::SequenceSet& reads) const;

 private:
  const io::SequenceSet& subjects_;
  MinimapParams params_;
  WinnowIndex index_;
};

}  // namespace jem::baseline
