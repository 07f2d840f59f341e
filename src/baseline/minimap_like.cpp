#include "baseline/minimap_like.hpp"

#include <algorithm>
#include <cmath>

namespace jem::baseline {

MinimapLikeMapper::MinimapLikeMapper(const io::SequenceSet& subjects,
                                     MinimapParams params)
    : subjects_(subjects),
      params_(params),
      index_(subjects, params.minimizer) {}

namespace {

struct Anchor {
  io::SeqId subject;
  std::uint32_t subject_pos;
  std::uint32_t query_pos;
};

}  // namespace

ChainHit MinimapLikeMapper::map_segment(std::string_view segment) const {
  const std::vector<core::Minimizer> query_minimizers =
      core::minimizer_scan(segment, params_.minimizer);
  if (query_minimizers.empty()) return {};

  // 1. Seeding: every (subject occurrence, query occurrence) pair of a
  // shared minimizer becomes an anchor.
  std::vector<Anchor> anchors;
  for (const core::Minimizer& m : query_minimizers) {
    for (const Occurrence& occ :
         index_.lookup_masked(m.kmer, params_.max_occurrences)) {
      anchors.push_back({occ.subject, occ.position, m.position});
    }
  }
  if (anchors.empty()) return {};

  std::sort(anchors.begin(), anchors.end(),
            [](const Anchor& a, const Anchor& b) {
              if (a.subject != b.subject) return a.subject < b.subject;
              if (a.subject_pos != b.subject_pos) {
                return a.subject_pos < b.subject_pos;
              }
              return a.query_pos < b.query_pos;
            });

  // 2. Chaining per subject group, once per orientation. Canonical
  // minimizers carry no strand, so a reverse-complement placement shows up
  // as anchors whose query positions *decrease* along the subject; the
  // forward pass requires them to increase, the reverse pass to decrease.
  const int k = params_.minimizer.k;
  ChainHit best;

  const auto chain_group = [&](std::span<const Anchor> group, bool reverse) {
    const std::size_t n = group.size();
    std::vector<double> score(n);
    std::vector<std::int32_t> parent(n, -1);
    double group_best = -1.0;
    std::size_t group_best_index = 0;

    for (std::size_t i = 0; i < n; ++i) {
      score[i] = static_cast<double>(k);  // a chain of one anchor
      const std::size_t lookback_begin =
          i > static_cast<std::size_t>(params_.max_lookback)
              ? i - static_cast<std::size_t>(params_.max_lookback)
              : 0;
      for (std::size_t j = i; j-- > lookback_begin;) {
        const std::int64_t ds =
            static_cast<std::int64_t>(group[i].subject_pos) -
            static_cast<std::int64_t>(group[j].subject_pos);
        const std::int64_t dq =
            reverse ? static_cast<std::int64_t>(group[j].query_pos) -
                          static_cast<std::int64_t>(group[i].query_pos)
                    : static_cast<std::int64_t>(group[i].query_pos) -
                          static_cast<std::int64_t>(group[j].query_pos);
        if (ds <= 0 || dq <= 0) continue;  // must advance on both axes
        if (ds > params_.max_gap || dq > params_.max_gap) continue;
        const std::int64_t drift = ds - dq;
        if (std::llabs(drift) > params_.bandwidth) continue;

        // Minimap2-style score: matched bases bonus minus a concave gap
        // penalty on the diagonal drift.
        const double bonus =
            static_cast<double>(std::min<std::int64_t>(k, std::min(ds, dq)));
        const double gap_cost =
            drift == 0
                ? 0.0
                : 0.01 * static_cast<double>(k) *
                          static_cast<double>(std::llabs(drift)) +
                      0.5 * std::log2(static_cast<double>(std::llabs(drift)));
        const double candidate = score[j] + bonus - gap_cost;
        if (candidate > score[i]) {
          score[i] = candidate;
          parent[i] = static_cast<std::int32_t>(j);
        }
      }
      if (score[i] > group_best) {
        group_best = score[i];
        group_best_index = i;
      }
    }

    if (group_best <= best.score) return;
    // Walk the chain back for its span and anchor count.
    std::uint32_t count = 0;
    std::size_t cursor = group_best_index;
    std::uint32_t span_begin = group[cursor].subject_pos;
    while (true) {
      span_begin = group[cursor].subject_pos;
      ++count;
      if (parent[cursor] < 0) break;
      cursor = static_cast<std::size_t>(parent[cursor]);
    }
    if (count < params_.min_chain_anchors) return;
    best.subject = group.front().subject;
    best.subject_begin = span_begin;
    best.subject_end = group[group_best_index].subject_pos +
                       static_cast<std::uint32_t>(k);
    best.anchors = count;
    best.score = group_best;
    best.reverse = reverse;
  };

  std::size_t group_begin = 0;
  while (group_begin < anchors.size()) {
    const io::SeqId subject = anchors[group_begin].subject;
    std::size_t group_end = group_begin;
    while (group_end < anchors.size() &&
           anchors[group_end].subject == subject) {
      ++group_end;
    }
    const std::span<const Anchor> group(anchors.data() + group_begin,
                                        group_end - group_begin);
    chain_group(group, /*reverse=*/false);
    chain_group(group, /*reverse=*/true);
    group_begin = group_end;
  }
  return best;
}

std::vector<core::SegmentMapping> MinimapLikeMapper::map_reads(
    const io::SequenceSet& reads, io::SeqId begin, io::SeqId end) const {
  std::vector<core::SegmentMapping> mappings;
  for (io::SeqId read = begin; read < end; ++read) {
    for (const core::EndSegment& segment : core::extract_end_segments(
             read, reads.bases(read), params_.segment_length)) {
      const ChainHit hit = map_segment(segment.bases);
      core::SegmentMapping mapping;
      mapping.read = read;
      mapping.end = segment.end;
      mapping.offset = segment.offset;
      mapping.segment_length =
          static_cast<std::uint32_t>(segment.bases.size());
      mapping.result.subject = hit.subject;
      mapping.result.votes = hit.anchors;
      mappings.push_back(mapping);
    }
  }
  return mappings;
}

std::vector<core::SegmentMapping> MinimapLikeMapper::map_reads(
    const io::SequenceSet& reads) const {
  return map_reads(reads, 0, static_cast<io::SeqId>(reads.size()));
}

std::vector<io::PafRecord> MinimapLikeMapper::map_reads_paf(
    const io::SequenceSet& reads) const {
  std::vector<io::PafRecord> records;
  const auto k = static_cast<std::uint64_t>(params_.minimizer.k);
  for (io::SeqId read = 0; read < reads.size(); ++read) {
    for (const core::EndSegment& segment : core::extract_end_segments(
             read, reads.bases(read), params_.segment_length)) {
      const ChainHit hit = map_segment(segment.bases);
      if (!hit.mapped()) continue;
      io::PafRecord rec;
      rec.query_name = std::string(reads.name(read));
      rec.query_length = reads.length(read);
      rec.query_begin = segment.offset;
      rec.query_end = segment.offset + segment.bases.size();
      rec.strand = hit.reverse ? '-' : '+';
      rec.target_name = std::string(subjects_.name(hit.subject));
      rec.target_length = subjects_.length(hit.subject);
      rec.target_begin = hit.subject_begin;
      rec.target_end = hit.subject_end;
      rec.matches = static_cast<std::uint64_t>(hit.anchors) * k;
      rec.alignment_length = hit.subject_end - hit.subject_begin;
      rec.mapq = static_cast<std::uint32_t>(
          std::min(60.0, hit.score / 10.0));
      records.push_back(std::move(rec));
    }
  }
  return records;
}

}  // namespace jem::baseline
