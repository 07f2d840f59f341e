#include "core/mapper.hpp"

#include <algorithm>
#include <optional>
#include <stdexcept>

#include "io/crc32.hpp"
#include "obs/metrics.hpp"
#include "util/thread_pool.hpp"

namespace jem::core {

void HotpathCounters::publish(obs::Registry& registry) const {
  using obs::Unit;
  registry.counter("core.hotpath.segments_seen").add(segments_seen);
  registry.counter("core.hotpath.segments_sampled").add(segments_sampled);
  registry.counter("core.hotpath.kmer_lookups").add(kmer_lookups);
  registry.counter("core.hotpath.sketch_hits").add(sketch_hits);
  registry.counter("core.hotpath.sketch_misses").add(sketch_misses);
  registry.counter("core.hotpath.probe_slots").add(probe_slots);
  registry.counter("core.hotpath.candidates").add(candidates);
  publish_kernel_lanes(registry);
  if (segments_sampled > 0) {
    // Per-sampled-segment distributions (log2 buckets).
    registry.histogram("core.hotpath.probe_slots_per_segment")
        .record(probe_slots / segments_sampled);
    registry.histogram("core.hotpath.candidates_per_segment")
        .record(candidates / segments_sampled);
  }
}

void publish_kernel_lanes(obs::Registry& registry) {
  registry.gauge("core.minimizer.lanes").set(minimizer_scan_lanes());
  registry.gauge("core.sketch.lanes").set(sketch_lanes());
  registry.gauge("io.crc32.lanes").set(io::crc32_lanes());
}

Sketch make_sketch(std::string_view seq, const MapParams& params,
                   SketchScheme scheme, const HashFamily& hashes) {
  switch (scheme) {
    case SketchScheme::kJem: {
      const SketchParams sp{{params.k, params.w, params.ordering},
                            params.segment_length};
      return sketch_by_jem(seq, sp, hashes);
    }
    case SketchScheme::kClassicMinhash:
      return classic_minhash(seq, params.k, hashes);
  }
  return {};
}

void make_sketch(std::string_view seq, const MapParams& params,
                 SketchScheme scheme, const HashFamily& hashes,
                 SketchScratch& scratch, FlatSketch& out) {
  switch (scheme) {
    case SketchScheme::kJem: {
      const MinimizerParams mp{params.k, params.w, params.ordering};
      minimizer_scan(seq, mp, scratch.scan, scratch.minimizers);
      sketch_by_jem(scratch.minimizers, params.segment_length, hashes,
                    scratch, out);
      break;
    }
    case SketchScheme::kClassicMinhash:
      classic_minhash(seq, params.k, hashes, scratch, out);
      break;
  }
}

std::vector<std::pair<io::SeqId, io::SeqId>> partition_by_bases(
    const io::SequenceSet& set, int parts) {
  return partition_by_bases(set, parts, 0,
                            static_cast<io::SeqId>(set.size()));
}

std::vector<std::pair<io::SeqId, io::SeqId>> partition_by_bases(
    const io::SequenceSet& set, int parts, io::SeqId first, io::SeqId last) {
  if (parts < 1) {
    throw std::invalid_argument("partition_by_bases: ranks must be >= 1");
  }
  const auto p = static_cast<std::size_t>(parts);
  std::vector<std::pair<io::SeqId, io::SeqId>> ranges(p);

  std::uint64_t bases = 0;
  for (io::SeqId id = first; id < last; ++id) bases += set.length(id);
  const double total = static_cast<double>(bases);
  io::SeqId cursor = first;
  std::uint64_t consumed = 0;
  for (std::size_t r = 0; r < p; ++r) {
    const io::SeqId begin = cursor;
    // Advance until this part's cumulative share reaches (r+1)/p of the
    // total bases; the last part absorbs any floating-point remainder.
    const double target =
        total * static_cast<double>(r + 1) / static_cast<double>(p);
    while (cursor < last && static_cast<double>(consumed) < target) {
      consumed += set.length(cursor);
      ++cursor;
    }
    ranges[r] = {begin, cursor};
  }
  ranges.back().second = last;
  return ranges;
}

std::vector<SketchEntry> sketch_subjects(const io::SequenceSet& subjects,
                                         io::SeqId begin, io::SeqId end,
                                         const MapParams& params,
                                         SketchScheme scheme,
                                         const HashFamily& hashes,
                                         std::size_t threads) {
  if (hashes.trials() != params.trials) {
    throw std::invalid_argument("sketch_subjects: trial count mismatch");
  }
  // One part per worker, never more parts than subjects; each part reuses
  // one scratch and one flat sketch for all of its subjects.
  const std::size_t parts = std::max<std::size_t>(
      1, std::min<std::size_t>(threads, end > begin ? end - begin : 0));
  const auto ranges =
      partition_by_bases(subjects, static_cast<int>(parts), begin, end);
  std::vector<std::vector<SketchEntry>> lists(parts);
  std::optional<util::ThreadPool> pool;
  if (parts > 1) pool.emplace(parts);
  util::parallel_for_each(pool ? &*pool : nullptr, parts, [&](std::size_t r) {
    SketchScratch scratch;
    FlatSketch sketch;
    std::vector<SketchEntry>& list = lists[r];
    for (io::SeqId id = ranges[r].first; id < ranges[r].second; ++id) {
      make_sketch(subjects.bases(id), params, scheme, hashes, scratch,
                  sketch);
      for (int t = 0; t < sketch.trials(); ++t) {
        for (const KmerCode kmer : sketch.trial(t)) {
          list.push_back({kmer, static_cast<std::uint32_t>(t), id});
        }
      }
    }
  });
  if (parts == 1) return std::move(lists.front());

  std::size_t total = 0;
  for (const auto& list : lists) total += list.size();
  std::vector<SketchEntry> entries;
  entries.reserve(total);
  for (auto& list : lists) {
    entries.insert(entries.end(), list.begin(), list.end());
    std::vector<SketchEntry>().swap(list);
  }
  return entries;
}

namespace {

/// The constructor's index build: S2 then the sort-based table build, both
/// on every hardware thread.
SketchTable build_table(const io::SequenceSet& subjects,
                        const MapParams& params, SketchScheme scheme,
                        const HashFamily& hashes) {
  params.validate();
  const std::size_t threads = util::default_threads(0);
  return SketchTable::from_entries(
      params.trials,
      sketch_subjects(subjects, 0, static_cast<io::SeqId>(subjects.size()),
                      params, scheme, hashes, threads),
      threads);
}

}  // namespace

JemMapper::JemMapper(const io::SequenceSet& subjects, MapParams params,
                     SketchScheme scheme)
    : subjects_(subjects),
      params_(params),
      scheme_(scheme),
      hashes_(params.trials, params.seed),
      table_(build_table(subjects, params_, scheme, hashes_)) {}

JemMapper::JemMapper(const io::SequenceSet& subjects, MapParams params,
                     SketchScheme scheme, SketchTable table)
    : subjects_(subjects),
      params_(params),
      scheme_(scheme),
      hashes_(params.trials, params.seed),
      table_(std::move(table)) {
  params_.validate();
  if (table_.trials() != params_.trials) {
    throw std::invalid_argument("JemMapper: table trial count mismatch");
  }
}

namespace {

/// Steps 4-7 of Algorithm 2, shared by map_segment and map_segment_topx:
/// sketches `segment` into the scratch's buffers, takes the home slot of
/// every (trial, k-mer) at once (FlatSketchIndex::homes hashes and
/// prefetches them), then in one pass over the sketch probes each k-mer
/// and calls on_vote(subject, count) once per subject per trial that hits
/// it, with `count` the subject's running vote total. Hits_r[t] is a *set*
/// of subjects: a subject colliding via several sketch k-mers within one
/// trial still earns a single vote, which the VoteCounter's last-trial
/// field enforces. Sampled segments also fill the scratch's hot-path
/// counters; a subject's first vote counts it as a candidate.
template <typename OnVote>
void vote_segment(std::string_view segment, const MapParams& params,
                  SketchScheme scheme, const HashFamily& hashes,
                  const FlatSketchIndex& index, MapScratch& scratch,
                  OnVote&& on_vote) {
  FlatSketch& sketch = scratch.sketch();
  make_sketch(segment, params, scheme, hashes, scratch.sketch_scratch(),
              sketch);
  std::vector<std::size_t>& homes = scratch.homes();
  index.homes(sketch, homes);
  VoteCounter& counter = scratch.counter();
  counter.new_segment();

  std::uint64_t probed = 0;
  std::uint64_t hits = 0;
  std::uint64_t candidates = 0;
  for (int t = 0; t < params.trials; ++t) {
    const auto trial = static_cast<std::uint32_t>(t);
    for (std::size_t j = sketch.offsets[trial]; j < sketch.offsets[trial + 1];
         ++j) {
      const std::span<const io::SeqId> subjects =
          index.probe(t, homes[j], sketch.kmers[j], probed);
      hits += subjects.empty() ? 0 : 1;
      for (const io::SeqId subject : subjects) {
        const std::uint32_t count = counter.vote(subject, trial);
        if (count == 0) continue;
        candidates += count == 1 ? 1 : 0;
        on_vote(subject, count);
      }
    }
  }

  HotpathCounters& hotpath = scratch.hotpath();
  if (hotpath.tick_sample()) {
    hotpath.kmer_lookups += sketch.kmers.size();
    hotpath.sketch_hits += hits;
    hotpath.sketch_misses += sketch.kmers.size() - hits;
    hotpath.probe_slots += probed;
    hotpath.candidates += candidates;
  }
}

}  // namespace

MapResult JemMapper::map_segment(std::string_view segment,
                                 MapScratch& scratch) const {
  MapResult best;
  vote_segment(segment, params_, scheme_, hashes_, table_.flat(), scratch,
               [&](io::SeqId subject, std::uint32_t count) {
                 // Final winner = max votes, ties to the smallest subject
                 // id; the online update realizes exactly that order
                 // without a final scan over all subjects.
                 if (count > best.votes ||
                     (count == best.votes && subject < best.subject)) {
                   best.votes = count;
                   best.subject = subject;
                 }
               });
  if (best.votes < params_.min_votes) return {};
  return best;
}

MapResult JemMapper::map_segment(std::string_view segment) const {
  MapScratch scratch(subjects_.size());
  return map_segment(segment, scratch);
}

std::vector<MapResult> JemMapper::map_segment_topx(std::string_view segment,
                                                   std::size_t x,
                                                   MapScratch& scratch) const {
  // Same vote counting as map_segment, but remember every subject touched
  // this round so the full ranking can be materialized afterwards. The
  // touched list lives in the scratch so repeat calls reuse its capacity.
  std::vector<io::SeqId>& touched = scratch.touched();
  touched.clear();
  vote_segment(segment, params_, scheme_, hashes_, table_.flat(), scratch,
               [&](io::SeqId subject, std::uint32_t count) {
                 if (count == 1) touched.push_back(subject);
               });

  std::sort(touched.begin(), touched.end(),
            [&](io::SeqId a, io::SeqId b) {
              const std::uint32_t va = scratch.counter().count(a);
              const std::uint32_t vb = scratch.counter().count(b);
              if (va != vb) return va > vb;
              return a < b;
            });

  std::vector<MapResult> hits;
  hits.reserve(std::min(x, touched.size()));
  for (io::SeqId subject : touched) {
    if (hits.size() >= x) break;
    const std::uint32_t votes = scratch.counter().count(subject);
    if (votes < params_.min_votes) break;  // sorted: all later are weaker
    hits.push_back({subject, votes});
  }
  return hits;
}

std::vector<io::MappingLine> JemMapper::to_mapping_lines(
    const io::SequenceSet& reads,
    const std::vector<SegmentMapping>& mappings) const {
  std::vector<io::MappingLine> lines;
  lines.reserve(mappings.size());
  for (const SegmentMapping& mapping : mappings) {
    io::MappingLine line;
    line.query = std::string(reads.name(mapping.read));
    line.end = read_end_tag(mapping.end);
    line.segment_length = mapping.segment_length;
    if (mapping.result.mapped()) {
      line.subject = std::string(subjects_.name(mapping.result.subject));
    }
    line.votes = mapping.result.votes;
    line.trials = static_cast<std::uint32_t>(params_.trials);
    lines.push_back(std::move(line));
  }
  return lines;
}

}  // namespace jem::core
