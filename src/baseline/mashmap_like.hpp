// MashmapLikeMapper — reimplementation of the state-of-the-art comparator
// the paper evaluates against (Mashmap; Jain et al., RECOMB 2017).
//
// Mashmap's structural difference from JEM-mapper (paper §III-B2): it keeps,
// for every minimizer, the list of all *positions* where it occurs in the
// subjects. At query time, the candidate subject regions with maximal local
// intersection of query minimizers are detected and scored with a winnowed
// Jaccard estimate. JEM-mapper instead bakes the segment length into the
// sketch so no positional post-filtering is needed.
//
// Stages implemented (following the published algorithm):
//  L1  candidate-region detection: all (subject, position) occurrences of
//      the query's minimizers are collected, grouped per subject, and
//      windows of segment length ℓ with at least `min_shared` distinct
//      query minimizers become candidates;
//  L2  refinement: per candidate window the winnowed Jaccard
//      |W(Q) ∩ W(window)| / |W(Q) ∪ W(window)| is maximized over window
//      offsets; the subject with the best estimate is the reported top hit.
//
// Highly repetitive minimizers (occurrence lists longer than
// `max_occurrences`) are masked, mirroring Mashmap's frequency filter.
#pragma once

#include <cstdint>
#include <string_view>
#include <vector>

#include "baseline/winnow_index.hpp"
#include "core/mapper.hpp"
#include "core/minimizer.hpp"
#include "io/sequence_set.hpp"

namespace jem::baseline {

struct MashmapParams {
  int k = 16;
  std::uint32_t segment_length = 1000;  // ℓ — same as JEM for head-to-head
  // Mashmap sizes its winnowing window from the per-segment sketch size s:
  // the expected number of distinct minimizers over an ℓ-long segment is
  // ~2ℓ/(w+1), so w ≈ 2ℓ/s - 1. The published default (s = 200 for
  // segment-scale mapping) yields a much *denser* sampling than JEM's
  // w = 100 — that density is the work JEM's interval sketch avoids, and
  // faithfully reproducing it is what makes the runtime comparison of
  // Table II meaningful.
  std::uint32_t sketch_size = 200;      // s
  std::uint32_t min_shared = 2;         // L1 candidate threshold
  double min_jaccard = 0.0;             // report threshold on the L2 score
  std::size_t max_occurrences = 1024;   // minimizer frequency mask

  /// The winnowing window implied by (segment_length, sketch_size).
  [[nodiscard]] core::MinimizerParams minimizer() const noexcept {
    const std::uint32_t window =
        sketch_size == 0 ? 1 : 2 * segment_length / sketch_size;
    return {k, static_cast<int>(window < 2 ? 1 : window - 1)};
  }
};

/// A mapped segment with the positional information Mashmap reports.
struct MashmapHit {
  io::SeqId subject = io::kInvalidSeqId;
  std::uint32_t position = 0;   // window start on the subject
  std::uint32_t shared = 0;     // |W(Q) ∩ W(window)|
  double jaccard = 0.0;

  [[nodiscard]] bool mapped() const noexcept {
    return subject != io::kInvalidSeqId;
  }
};

class MashmapLikeMapper {
 public:
  MashmapLikeMapper(const io::SequenceSet& subjects, MashmapParams params);

  [[nodiscard]] const MashmapParams& params() const noexcept {
    return params_;
  }

  /// Number of indexed (kmer -> occurrence) postings.
  [[nodiscard]] std::size_t index_postings() const noexcept {
    return index_.postings();
  }

  /// Maps one query segment; returns the top hit (or an unmapped result).
  [[nodiscard]] MashmapHit map_segment(std::string_view segment) const;

  /// Maps the end segments of reads [begin, end), in the same output format
  /// as JemMapper so the evaluators can compare them directly.
  [[nodiscard]] std::vector<core::SegmentMapping> map_reads(
      const io::SequenceSet& reads, io::SeqId begin, io::SeqId end) const;
  [[nodiscard]] std::vector<core::SegmentMapping> map_reads(
      const io::SequenceSet& reads) const;

 private:
  const io::SequenceSet& subjects_;
  MashmapParams params_;
  WinnowIndex index_;
};

}  // namespace jem::baseline
