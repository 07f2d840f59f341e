#include "baseline/mashmap_like.hpp"

#include <algorithm>

namespace jem::baseline {

MashmapLikeMapper::MashmapLikeMapper(const io::SequenceSet& subjects,
                                     MashmapParams params)
    : subjects_(subjects),
      params_(params),
      index_(subjects, params.minimizer()) {}

MashmapHit MashmapLikeMapper::map_segment(std::string_view segment) const {
  const std::vector<core::Minimizer> query_minimizers =
      core::minimizer_scan(segment, params_.minimizer());
  if (query_minimizers.empty()) return {};

  // Distinct query minimizer k-mers = W(Q).
  std::vector<core::KmerCode> query_kmers;
  query_kmers.reserve(query_minimizers.size());
  for (const core::Minimizer& m : query_minimizers) {
    query_kmers.push_back(m.kmer);
  }
  std::sort(query_kmers.begin(), query_kmers.end());
  query_kmers.erase(std::unique(query_kmers.begin(), query_kmers.end()),
                    query_kmers.end());
  const auto sketch_size = static_cast<std::uint32_t>(query_kmers.size());

  // L1: collect all occurrences of the query's minimizers in the subjects.
  struct Match {
    io::SeqId subject;
    std::uint32_t position;
    core::KmerCode kmer;
  };
  std::vector<Match> matches;
  for (core::KmerCode kmer : query_kmers) {
    for (const Occurrence& occ :
         index_.lookup_masked(kmer, params_.max_occurrences)) {
      matches.push_back({occ.subject, occ.position, kmer});
    }
  }
  if (matches.empty()) return {};

  std::sort(matches.begin(), matches.end(),
            [](const Match& a, const Match& b) {
              if (a.subject != b.subject) return a.subject < b.subject;
              return a.position < b.position;
            });

  // Per subject, slide a window of length ℓ over the matched positions and
  // maximize the number of distinct query minimizers inside (L1 count, also
  // the intersection size for L2).
  MashmapHit best;
  std::size_t group_begin = 0;
  while (group_begin < matches.size()) {
    const io::SeqId subject = matches[group_begin].subject;
    std::size_t group_end = group_begin;
    while (group_end < matches.size() &&
           matches[group_end].subject == subject) {
      ++group_end;
    }

    // Distinct-kmer count within the sliding window via per-kmer
    // multiplicity bookkeeping.
    std::unordered_map<core::KmerCode, std::uint32_t> in_window;
    std::uint32_t distinct = 0;
    std::size_t left = group_begin;
    for (std::size_t right = group_begin; right < group_end; ++right) {
      if (++in_window[matches[right].kmer] == 1) ++distinct;
      while (matches[right].position - matches[left].position >
             params_.segment_length) {
        if (--in_window[matches[left].kmer] == 0) --distinct;
        ++left;
      }
      if (distinct < params_.min_shared) continue;

      // L2: winnowed Jaccard for the window anchored at matches[left].
      const std::uint32_t window_begin = matches[left].position;
      const std::uint32_t window_minimizers = index_.count_in_window(
          subject, window_begin, window_begin + params_.segment_length);
      const std::uint32_t union_size =
          sketch_size + window_minimizers - distinct;
      const double jaccard =
          union_size == 0
              ? 0.0
              : static_cast<double>(distinct) / static_cast<double>(union_size);

      const bool better =
          jaccard > best.jaccard ||
          (jaccard == best.jaccard &&
           (distinct > best.shared ||
            (distinct == best.shared && subject < best.subject)));
      if (better) {
        best = {subject, window_begin, distinct, jaccard};
      }
    }
    group_begin = group_end;
  }

  if (!best.mapped() || best.jaccard < params_.min_jaccard) return {};
  return best;
}

std::vector<core::SegmentMapping> MashmapLikeMapper::map_reads(
    const io::SequenceSet& reads, io::SeqId begin, io::SeqId end) const {
  std::vector<core::SegmentMapping> mappings;
  for (io::SeqId read = begin; read < end; ++read) {
    for (const core::EndSegment& segment : core::extract_end_segments(
             read, reads.bases(read), params_.segment_length)) {
      const MashmapHit hit = map_segment(segment.bases);
      core::SegmentMapping mapping;
      mapping.read = read;
      mapping.end = segment.end;
      mapping.offset = segment.offset;
      mapping.segment_length =
          static_cast<std::uint32_t>(segment.bases.size());
      mapping.result.subject = hit.subject;
      mapping.result.votes = hit.shared;
      mappings.push_back(mapping);
    }
  }
  return mappings;
}

std::vector<core::SegmentMapping> MashmapLikeMapper::map_reads(
    const io::SequenceSet& reads) const {
  return map_reads(reads, 0, static_cast<io::SeqId>(reads.size()));
}

}  // namespace jem::baseline
