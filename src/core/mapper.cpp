#include "core/mapper.hpp"

#include <algorithm>
#include <bit>
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
  registry.counter("core.hotpath.kmer_probes").add(kmer_probes);
  registry.counter("core.hotpath.probe_slots").add(probe_slots);
  registry.counter("core.hotpath.candidates").add(candidates);
  registry.counter("core.hotpath.segments_grouped").add(segments_grouped);
  registry.counter("core.hotpath.segments_single").add(segments_single);
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

namespace {

/// sketch_keys' rows into any pair of row vectors.
void sketch_rows(std::string_view seq, const MapParams& params,
                 SketchScheme scheme, const HashFamily& hashes,
                 SketchScratch& scratch, std::vector<KmerCode>& kmers,
                 std::vector<std::uint64_t>& sets) {
  switch (scheme) {
    case SketchScheme::kJem: {
      const MinimizerParams mp{params.k, params.w, params.ordering};
      minimizer_scan(seq, mp, scratch.scan, scratch.minimizers);
      sketch_by_jem_sets(scratch.minimizers, params.segment_length, hashes,
                         scratch, kmers, sets);
      break;
    }
    case SketchScheme::kClassicMinhash:
      classic_minhash_sets(seq, params.k, hashes, scratch, kmers, sets);
      break;
  }
}

}  // namespace

void make_sketch(std::string_view seq, const MapParams& params,
                 SketchScheme scheme, const HashFamily& hashes,
                 SketchScratch& scratch, FlatSketch& out) {
  sketch_rows(seq, params, scheme, hashes, scratch, scratch.view_kmers,
              scratch.view_sets);
  rows_by_trial(scratch.view_kmers, scratch.view_sets, hashes.trials(), out);
}

std::size_t sketch_keys(std::string_view seq, const MapParams& params,
                        SketchScheme scheme, const HashFamily& hashes,
                        SketchScratch& scratch, SketchKeys& keys) {
  sketch_rows(seq, params, scheme, hashes, scratch, keys.kmers, keys.trials);
  return keys.kmers.size();
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
  // one scratch and one set of rows for all of its subjects.
  const std::size_t parts = std::max<std::size_t>(
      1, std::min<std::size_t>(threads, end > begin ? end - begin : 0));
  const auto ranges =
      partition_by_bases(subjects, static_cast<int>(parts), begin, end);
  // Each part's list is reserved here, on the calling thread, for a quarter
  // more entries than its subjects are expected to give: per trial about
  // 2 len / ℓ + 2 interval minima under JEM (seed-7 perfbench contigs:
  // 10,813 per trial against 10,884 expected), one under MinHash. Grown by
  // its worker instead, a list left its outgrown buffers free in that
  // thread's arena, which kept ~13 MB more resident across the index
  // builds of a perfbench map-tiled run.
  std::vector<std::vector<SketchEntry>> lists(parts);
  const auto trials = static_cast<std::size_t>(params.trials);
  for (std::size_t r = 0; r < parts; ++r) {
    std::size_t expected = 0;
    for (io::SeqId id = ranges[r].first; id < ranges[r].second; ++id) {
      expected += scheme == SketchScheme::kJem
                      ? trials * (2 * subjects.length(id) /
                                      params.segment_length +
                                  2)
                      : trials;
    }
    lists[r].reserve(expected + expected / 4);
  }
  std::optional<util::ThreadPool> pool;
  if (parts > 1) pool.emplace(parts);
  util::parallel_for_each(pool ? &*pool : nullptr, parts, [&](std::size_t r) {
    SketchScratch scratch;
    SketchKeys rows;
    const std::size_t words =
        trial_set_words(static_cast<std::size_t>(params.trials));
    std::vector<SketchEntry>& list = lists[r];
    for (io::SeqId id = ranges[r].first; id < ranges[r].second; ++id) {
      (void)sketch_keys(subjects.bases(id), params, scheme, hashes, scratch,
                        rows);
      for_each_entry(rows.kmers, rows.trials, words,
                     [&](std::size_t t, KmerCode kmer) {
                       list.push_back(
                           {kmer, static_cast<std::uint32_t>(t), id});
                     });
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

/// Resolves the keys of a sketch to the postings they vote with. Probes
/// each distinct k-mer once (its home slot was prefetched) and prefetches
/// its postings run; keeps the postings whose trial holds the k-mer in the
/// sketch, tested against its trial set, at the front of keys.matched, and
/// counts them per trial in keys.starts. Adds the slots touched to
/// `probed`, and returns the (trial, k-mer) entries of the sketch that have
/// postings in their trial.
std::uint64_t gather_postings(const FlatSketchIndex& index,
                              std::size_t trials, SketchKeys& keys,
                              std::uint64_t& probed) {
  const std::uint32_t* const trial_ids = index.trial_ids().data();
  const io::SeqId* const subjects = index.subjects().data();
  const std::size_t distinct = keys.kmers.size();
  std::size_t postings = 0;
  for (std::size_t d = 0; d < distinct; ++d) {
    const FlatSketchIndex::Run run =
        index.probe(keys.homes[d], keys.kmers[d], probed);
    __builtin_prefetch(trial_ids + run.begin, 0 /* read */, 1);
    __builtin_prefetch(subjects + run.begin, 0 /* read */, 1);
    keys.runs[d] = run;
    postings += run.end - run.begin;
  }

  // Branch-free filter: every posting is written at the next free place,
  // and only the kept ones advance it.
  const std::size_t words = trial_set_words(trials);
  keys.matched.resize(postings);
  keys.starts.assign(trials + 1, 0);
  SketchKeys::Posting* const matched = keys.matched.data();
  std::uint32_t* const starts = keys.starts.data();
  std::size_t kept = 0;
  std::uint64_t hits = 0;
  for (std::size_t d = 0; d < distinct; ++d) {
    const std::uint64_t* const bits = keys.trials.data() + d * words;
    const FlatSketchIndex::Run run = keys.runs[d];
    for (std::uint32_t at = run.begin; at < run.end; ++at) {
      const std::uint32_t trial = trial_ids[at];
      const std::uint32_t keep = (bits[trial / 64] >> (trial % 64)) & 1;
      matched[kept] = {trial, subjects[at]};
      kept += keep;
      starts[trial + 1] += keep;
      // The first posting of a trial within the run is one entry's hit.
      hits += keep & (at == run.begin || trial_ids[at - 1] != trial ? 1 : 0);
    }
  }
  return hits;
}

/// The vote rule. Counting-sorts the postings at the front of the
/// scratch's keys.matched by trial into keys.voted (keys.starts[t + 1]
/// holds trial t's count) and feeds them to its VoteCounter in ascending
/// trial order. Hits_r[t] is a *set* of subjects: a subject colliding via
/// several sketch k-mers within one trial still earns a single vote, which
/// the counter's last-trial field enforces. Calls on_vote(subject, count)
/// on each vote, with `count` the subject's running total, and adds the
/// distinct subjects voted to `candidates`. Returns the subject with the
/// most votes, ties to the smallest id (the online update realizes that
/// order without a final scan over all subjects), or an unmapped result
/// below `min_votes`.
template <typename OnVote>
MapResult vote_by_trial(MapScratch& scratch, std::size_t trials,
                        std::uint32_t min_votes, std::uint64_t& candidates,
                        OnVote&& on_vote) {
  SketchKeys& keys = scratch.keys();
  std::uint32_t* const starts = keys.starts.data();
  for (std::size_t t = 0; t < trials; ++t) starts[t + 1] += starts[t];
  const std::size_t matched = starts[trials];
  keys.voted.resize(matched);
  const SketchKeys::Posting* const in = keys.matched.data();
  SketchKeys::Posting* const out = keys.voted.data();
  for (std::size_t i = 0; i < matched; ++i) {
    out[starts[in[i].trial]++] = in[i];
  }

  VoteCounter& counter = scratch.counter();
  counter.new_segment();
  MapResult best;
  for (const SketchKeys::Posting posting : keys.voted) {
    const std::uint32_t count = counter.vote(posting.subject, posting.trial);
    if (count == 0) continue;
    candidates += count == 1 ? 1 : 0;
    if (count > best.votes ||
        (count == best.votes && posting.subject < best.subject)) {
      best = {posting.subject, count};
    }
    on_vote(posting.subject, count);
  }
  return best.votes < min_votes ? MapResult{} : best;
}

/// Steps 5-8 of Algorithm 2 for the segment whose rows are in the
/// scratch's keys: resolves its distinct k-mers to their voting postings
/// (gather_postings) and votes them (vote_by_trial, which calls on_vote and
/// returns the best hit). Sampled segments also fill the scratch's
/// hot-path counters.
template <typename OnVote>
MapResult vote_keys(const MapParams& params, const FlatSketchIndex& index,
                    MapScratch& scratch, OnVote&& on_vote) {
  SketchKeys& keys = scratch.keys();
  const std::size_t distinct = keys.kmers.size();
  // The home slots of all distinct k-mers are prefetched first, so their
  // misses overlap.
  keys.homes.resize(distinct);
  keys.runs.resize(distinct);
  for (std::size_t d = 0; d < distinct; ++d) {
    keys.homes[d] = index.home(FlatSketchIndex::hash(keys.kmers[d]));
    index.prefetch(keys.homes[d]);
  }
  const auto trials = static_cast<std::size_t>(params.trials);
  std::uint64_t probed = 0;
  const std::uint64_t hits = gather_postings(index, trials, keys, probed);
  std::uint64_t candidates = 0;
  const MapResult best =
      vote_by_trial(scratch, trials, params.min_votes, candidates, on_vote);

  HotpathCounters& hotpath = scratch.hotpath();
  if (hotpath.tick_sample()) {
    std::uint64_t entries = 0;  // (trial, k-mer) entries of the sketch
    for (const std::uint64_t word : keys.trials) {
      entries += static_cast<std::uint64_t>(std::popcount(word));
    }
    hotpath.kmer_lookups += entries;
    hotpath.sketch_hits += hits;
    hotpath.sketch_misses += entries - hits;
    hotpath.kmer_probes += distinct;
    hotpath.probe_slots += probed;
    hotpath.candidates += candidates;
  }
  return best;
}

/// Step 4 of Algorithm 2 over a batch, shared by map_segments and
/// map_segments_topx: leaves each segment's sketch rows in the scratch's
/// keys and calls vote(i), segment by segment in batch order. JEM scans
/// the minimizers of up to minimizer_scan_lanes() segments at a time
/// (minimizer_scan_many, which groups them one per lane where it can) and
/// sketches each list; MinHash sketches each segment from its bases.
template <typename Vote>
void sketch_each(std::span<const std::string_view> segments,
                 const MapParams& params, SketchScheme scheme,
                 const HashFamily& hashes, MapScratch& scratch, Vote&& vote) {
  SketchScratch& sketch = scratch.sketch_scratch();
  SketchKeys& keys = scratch.keys();
  if (scheme == SketchScheme::kClassicMinhash) {
    for (std::size_t i = 0; i < segments.size(); ++i) {
      classic_minhash_sets(segments[i], params.k, hashes, sketch, keys.kmers,
                           keys.trials);
      vote(i);
    }
    return;
  }
  const MinimizerParams mp{params.k, params.w, params.ordering};
  auto& lists = scratch.group_lists();
  const auto group = static_cast<std::size_t>(minimizer_scan_lanes());
  HotpathCounters& hotpath = scratch.hotpath();
  for (std::size_t first = 0; first < segments.size(); first += group) {
    const std::size_t count = std::min(group, segments.size() - first);
    const std::size_t grouped =
        minimizer_scan_many(segments.subspan(first, count), mp, sketch.scan,
                            std::span(lists).first(count));
    hotpath.segments_grouped += grouped;
    hotpath.segments_single += count - grouped;
    for (std::size_t j = 0; j < count; ++j) {
      sketch_by_jem_sets(lists[j], params.segment_length, hashes, sketch,
                         keys.kmers, keys.trials);
      vote(first + j);
    }
  }
}

}  // namespace

MapResult vote_matched(MapScratch& scratch, int trials,
                       std::uint32_t min_votes) {
  std::uint64_t candidates = 0;
  return vote_by_trial(scratch, static_cast<std::size_t>(trials), min_votes,
                       candidates, [](io::SeqId, std::uint32_t) {});
}

void JemMapper::map_segments(std::span<const std::string_view> segments,
                             MapScratch& scratch,
                             std::span<MapResult> results) const {
  if (results.size() < segments.size()) {
    throw std::invalid_argument("map_segments: fewer results than segments");
  }
  sketch_each(segments, params_, scheme_, hashes_, scratch,
              [&](std::size_t i) {
                results[i] = vote_keys(params_, table_.flat(), scratch,
                                       [](io::SeqId, std::uint32_t) {});
              });
}

void JemMapper::map_segments_topx(std::span<const std::string_view> segments,
                                  std::size_t x, MapScratch& scratch,
                                  std::span<std::vector<MapResult>> hits) const {
  if (hits.size() < segments.size()) {
    throw std::invalid_argument("map_segments_topx: fewer lists than segments");
  }
  // Same vote counting as map_segments, but remember every subject touched
  // this round so the full ranking can be materialized afterwards. The
  // touched list lives in the scratch so repeat calls reuse its capacity.
  std::vector<io::SeqId>& touched = scratch.touched();
  const VoteCounter& counter = scratch.counter();
  sketch_each(
      segments, params_, scheme_, hashes_, scratch, [&](std::size_t i) {
        touched.clear();
        (void)vote_keys(params_, table_.flat(), scratch,
                        [&](io::SeqId subject, std::uint32_t count) {
                          if (count == 1) touched.push_back(subject);
                        });
        std::sort(touched.begin(), touched.end(),
                  [&](io::SeqId a, io::SeqId b) {
                    const std::uint32_t va = counter.count(a);
                    const std::uint32_t vb = counter.count(b);
                    if (va != vb) return va > vb;
                    return a < b;
                  });
        std::vector<MapResult>& list = hits[i];
        list.clear();
        list.reserve(std::min(x, touched.size()));
        for (const io::SeqId subject : touched) {
          if (list.size() >= x) break;
          const std::uint32_t votes = counter.count(subject);
          if (votes < params_.min_votes) break;  // sorted: all later weaker
          list.push_back({subject, votes});
        }
      });
}

MapResult JemMapper::map_segment(std::string_view segment,
                                 MapScratch& scratch) const {
  MapResult result;
  map_segments({&segment, 1}, scratch, {&result, 1});
  return result;
}

MapResult JemMapper::map_segment(std::string_view segment) const {
  MapScratch scratch(subjects_.size());
  return map_segment(segment, scratch);
}

std::vector<MapResult> JemMapper::map_segment_topx(std::string_view segment,
                                                   std::size_t x,
                                                   MapScratch& scratch) const {
  std::vector<MapResult> hits;
  map_segments_topx({&segment, 1}, x, scratch, {&hits, 1});
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
