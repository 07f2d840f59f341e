#include "core/distributed.hpp"

#include <algorithm>
#include <functional>
#include <stdexcept>

#include "core/engine.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "util/prng.hpp"
#include "util/timer.hpp"

namespace jem::core {

namespace {

std::uint64_t s_to_ns(double seconds) {
  return seconds <= 0.0 ? 0
                        : static_cast<std::uint64_t>(seconds * 1e9 + 0.5);
}

}  // namespace

void DistributedStepReport::publish(obs::Registry& registry) const {
  registry.gauge("distributed.ranks").set(ranks);
  registry.counter("distributed.queries_mapped").add(queries_mapped);
  registry.counter("distributed.queries_recovered").add(queries_recovered);
  registry.counter("distributed.faults_injected").add(faults_injected);
  registry.counter("distributed.rank_failures").add(failed_ranks.size());
  registry.counter("distributed.sketch_bytes", obs::Unit::kBytes)
      .add(sketch_bytes);
  registry.counter("distributed.load_ns", obs::Unit::kNanos)
      .add(s_to_ns(load_s));
  registry.counter("distributed.sketch_subjects_ns", obs::Unit::kNanos)
      .add(s_to_ns(sketch_subjects_s));
  registry.counter("distributed.allgather_ns", obs::Unit::kNanos)
      .add(s_to_ns(allgather_s));
  registry.counter("distributed.build_global_ns", obs::Unit::kNanos)
      .add(s_to_ns(build_global_s));
  registry.counter("distributed.map_queries_ns", obs::Unit::kNanos)
      .add(s_to_ns(map_queries_s));
  registry.counter("distributed.recover_ns", obs::Unit::kNanos)
      .add(s_to_ns(recover_s));
  for (const RankStageTimes& times : per_rank) {
    const std::string prefix =
        "distributed.rank" + std::to_string(times.rank);
    registry.counter(prefix + ".sketch_ns", obs::Unit::kNanos)
        .add(s_to_ns(times.sketch_s));
    registry.counter(prefix + ".allgather_ns", obs::Unit::kNanos)
        .add(s_to_ns(times.allgather_s));
    registry.counter(prefix + ".build_ns", obs::Unit::kNanos)
        .add(s_to_ns(times.build_s));
    registry.counter(prefix + ".map_ns", obs::Unit::kNanos)
        .add(s_to_ns(times.map_s));
  }
  // `comm` is not re-published here: the SPMD launcher already publishes
  // the run's CommStats (mpisim.*) when a registry is attached.
}

MappingWire to_wire(const SegmentMapping& mapping) noexcept {
  return {mapping.read,   static_cast<std::uint32_t>(mapping.end),
          mapping.offset, mapping.segment_length,
          mapping.result.subject, mapping.result.votes};
}

SegmentMapping from_wire(const MappingWire& wire) noexcept {
  SegmentMapping mapping;
  mapping.read = wire.read;
  mapping.end = static_cast<ReadEnd>(wire.end);
  mapping.offset = wire.offset;
  mapping.segment_length = wire.segment_length;
  mapping.result.subject = wire.subject;
  mapping.result.votes = wire.votes;
  return mapping;
}

namespace {

void sort_by_read(std::vector<SegmentMapping>& mappings) {
  std::sort(mappings.begin(), mappings.end(),
            [](const SegmentMapping& a, const SegmentMapping& b) {
              if (a.read != b.read) return a.read < b.read;
              return static_cast<int>(a.end) < static_cast<int>(b.end);
            });
}

double seconds(std::uint64_t ns) { return static_cast<double>(ns) * 1e-9; }

/// The engine request every distributed map step runs: one serial batch
/// that publishes into the run's metrics registry. The tracer stays off so
/// a distributed trace keeps only its S2-S4 spans.
MapRequest map_request_for(const obs::ObsHooks& obs) {
  MapRequest request;
  request.obs.metrics = obs.metrics;
  return request;
}

/// One rank's share of an SPMD run: its S1 ranges going in, its results
/// coming out. Written only by the owning rank's thread; read by the driver
/// after the join.
struct RankSlot {
  std::pair<io::SeqId, io::SeqId> subjects;  // S1: local subject range
  std::pair<io::SeqId, io::SeqId> queries;   // S1: local read range
  /// Survivors no longer depend on this rank: its sketch reached the S3
  /// union (replicated) or its shard answered every probe (partitioned).
  /// A rank that fails before that degrades the run.
  bool shared = false;
  /// `mappings` holds this rank's whole S4 result.
  bool deposited = false;
  std::vector<SegmentMapping> mappings;
  RankStageTimes times;             // zero for a rank that died in S2-S4
  std::uint64_t table_entries = 0;  // this rank's sketch-table size
};

/// A strategy's S2-S4 body, run on every rank: it reads the slot's ranges
/// and fills in `shared`, `mappings`, `times` and `table_entries`.
using RankStages = std::function<void(mpisim::Comm&, RankSlot&)>;

/// The SPMD skeleton both strategies share. S1 partitions subjects and
/// reads by bases; every rank runs `stages`, deposits its mappings in its
/// slot and gathers them at rank 0. If a rank failed, the output is
/// assembled from the deposits instead (the rank-0 gather may be incomplete,
/// or rank 0 the casualty), and every failed rank's query partition is
/// re-mapped against a freshly built *full* sketch table. That table is
/// identical to the replicated S_global, so a recovered partition matches
/// what the failed rank would have produced. `sketch_bytes` reads the
/// report's exchange volume off the run's communication stats.
DistributedResult run_ranks(
    const io::SequenceSet& subjects, const io::SequenceSet& reads,
    const MapParams& params, int ranks, SketchScheme scheme,
    const RobustnessOptions& robust, const obs::ObsHooks& obs,
    const RankStages& stages,
    std::uint64_t (*sketch_bytes)(const mpisim::CommStats&)) {
  util::WallTimer load_timer;
  const auto subject_ranges = partition_by_bases(subjects, ranks);
  const auto read_ranges = partition_by_bases(reads, ranks);
  std::vector<RankSlot> slots(subject_ranges.size());
  for (std::size_t r = 0; r < slots.size(); ++r) {
    slots[r].subjects = subject_ranges[r];
    slots[r].queries = read_ranges[r];
  }
  DistributedResult result;
  DistributedStepReport& report = result.report;
  report.ranks = ranks;
  report.load_s = load_timer.elapsed_s();

  mpisim::SpmdOptions options;
  if (!robust.fault_plan.empty()) options.fault_plan = &robust.fault_plan;
  options.obs = obs;
  const mpisim::SpmdReport spmd = mpisim::run_spmd_ft(
      ranks,
      [&](mpisim::Comm& comm) {
        RankSlot& slot = slots[static_cast<std::size_t>(comm.rank())];
        stages(comm, slot);
        slot.deposited = true;

        std::vector<MappingWire> wire;
        wire.reserve(slot.mappings.size());
        for (const SegmentMapping& mapping : slot.mappings) {
          wire.push_back(to_wire(mapping));
        }
        // Only rank 0 receives parts, so only its thread writes here.
        for (const auto& part : comm.gatherv<MappingWire>(wire, /*root=*/0)) {
          for (const MappingWire& w : part) {
            result.mappings.push_back(from_wire(w));
          }
        }
      },
      options);

  if (!spmd.ok()) {
    util::WallTimer recover_timer;
    const MappingEngine recovery_engine(subjects, params, scheme);
    result.mappings.clear();
    for (RankSlot& slot : slots) {
      if (!slot.deposited) {
        slot.mappings = recovery_engine
                            .run(reads, slot.queries.first,
                                 slot.queries.second, map_request_for(obs))
                            .mappings;
        report.queries_recovered += slot.mappings.size();
      }
      result.mappings.insert(result.mappings.end(), slot.mappings.begin(),
                             slot.mappings.end());
    }
    report.recover_s = recover_timer.elapsed_s();
  }
  sort_by_read(result.mappings);

  for (std::size_t r = 0; r < slots.size(); ++r) {
    RankStageTimes& times = slots[r].times;
    times.rank = static_cast<int>(r);
    report.sketch_subjects_s = std::max(report.sketch_subjects_s,
                                        times.sketch_s);
    report.allgather_s = std::max(report.allgather_s, times.allgather_s);
    report.build_global_s = std::max(report.build_global_s, times.build_s);
    report.map_queries_s = std::max(report.map_queries_s, times.map_s);
    report.table_entries_max =
        std::max(report.table_entries_max, slots[r].table_entries);
    report.queries_mapped += slots[r].mappings.size();
    report.per_rank.push_back(times);
  }
  report.failed_ranks = spmd.failed_ranks();
  for (const int rank : report.failed_ranks) {
    if (!slots[static_cast<std::size_t>(rank)].shared) report.degraded = true;
  }
  report.faults_injected = spmd.faults_injected;
  report.comm = spmd.stats;
  report.sketch_bytes = sketch_bytes(spmd.stats);
  if (obs.metrics != nullptr) {
    report.publish(*obs.metrics);
    publish_kernel_lanes(*obs.metrics);
  }
  return result;
}

}  // namespace

DistributedResult run_distributed(const io::SequenceSet& subjects,
                                  const io::SequenceSet& reads,
                                  const MapParams& params, int ranks,
                                  SketchScheme scheme, int threads_per_rank,
                                  const RobustnessOptions& robust,
                                  const obs::ObsHooks& obs) {
  params.validate();
  // Checked here: MapRequest::threads == 0 would mean every hardware
  // thread, not an error.
  if (threads_per_rank < 1) {
    throw std::invalid_argument(
        "run_distributed: threads_per_rank must be >= 1");
  }
  const auto threads = static_cast<std::size_t>(threads_per_rank);
  MapRequest rank_request = map_request_for(obs);
  if (threads > 1) {
    rank_request.backend = MapBackend::kPool;
    rank_request.threads = threads;
  }

  const auto stages = [&](mpisim::Comm& comm, RankSlot& slot) {
    // Every rank derives the shared hash family from the experiment seed.
    const HashFamily hashes(params.trials, params.seed);

    // S2: sketch local subjects.
    comm.fault_point("S2:sketch");
    obs::StageSpan sketch_span(obs, "S2:sketch");
    const std::vector<SketchEntry> local_entries =
        sketch_subjects(subjects, slot.subjects.first, slot.subjects.second,
                        params, scheme, hashes, threads);
    const double sketch_s = seconds(sketch_span.finish());

    // S3: allgatherv the sketch entries; rebuild the replicated table.
    obs::StageSpan gather_span(obs, "S3:allgather");
    const std::vector<SketchEntry> global_entries =
        comm.allgatherv<SketchEntry>(local_entries);
    const double gather_s = seconds(gather_span.finish());
    slot.shared = true;  // this rank's entries reached the union

    obs::StageSpan build_span(obs, "S3:build");
    SketchTable global =
        SketchTable::from_entries(params.trials, global_entries, threads);
    const double build_s = seconds(build_span.finish());

    // S4: map local queries — on this rank's thread, or on a rank-private
    // engine pool in hybrid mode.
    comm.fault_point("S4:map");
    obs::StageSpan map_span(obs, "S4:map");
    const MappingEngine engine(subjects, params, scheme, std::move(global));
    slot.mappings = engine
                        .run(reads, slot.queries.first, slot.queries.second,
                             rank_request)
                        .mappings;
    slot.times = {comm.rank(), sketch_s, gather_s, build_s,
                  seconds(map_span.finish())};
    slot.table_entries = engine.mapper().table().size();
  };
  // S3's volume: the union rank 0 received from the allgather.
  const auto union_bytes = [](const mpisim::CommStats& comm) -> std::uint64_t {
    const auto site = comm.per_site.find("allgatherv");
    return site == comm.per_site.end() ? 0 : site->second.recv_bytes[0];
  };
  return run_ranks(subjects, reads, params, ranks, scheme, robust, obs,
                   stages, union_bytes);
}

namespace {

/// Owner rank of a k-mer under the partitioned-table strategy.
int kmer_owner(KmerCode kmer, int ranks) {
  return static_cast<int>(util::mix64(kmer) %
                          static_cast<std::uint64_t>(ranks));
}

/// Wire record of the reply exchange: one posting of a probed k-mer in a
/// trial of the probe's trial set.
struct HitReply {
  std::uint32_t segment = 0;  // local segment index at the origin rank
  std::uint32_t trial = 0;
  io::SeqId subject = 0;
};
static_assert(sizeof(HitReply) == 12);

}  // namespace

DistributedResult run_distributed_partitioned(const io::SequenceSet& subjects,
                                              const io::SequenceSet& reads,
                                              const MapParams& params,
                                              int ranks, SketchScheme scheme,
                                              const RobustnessOptions& robust,
                                              const obs::ObsHooks& obs) {
  params.validate();
  // Unlike the replicated strategy, *any* abort before the replies exchange
  // degrades survivors: the dead rank's table shard stops answering probes,
  // so surviving queries lose those votes.
  const auto stages = [&](mpisim::Comm& comm, RankSlot& slot) {
    const int p = comm.size();
    const HashFamily hashes(params.trials, params.seed);

    // S2: sketch local subjects, then route every entry to its k-mer's
    // owner rank (one all-to-all replaces the allgather union).
    comm.fault_point("P:route");
    obs::StageSpan sketch_span(obs, "P:sketch");
    const std::vector<SketchEntry> local =
        sketch_subjects(subjects, slot.subjects.first, slot.subjects.second,
                        params, scheme, hashes);
    const double sketch_s = seconds(sketch_span.finish());
    obs::StageSpan route_span(obs, "P:route");
    std::vector<std::vector<SketchEntry>> outgoing(
        static_cast<std::size_t>(p));
    for (const SketchEntry& entry : local) {
      outgoing[static_cast<std::size_t>(kmer_owner(entry.kmer, p))]
          .push_back(entry);
    }
    const auto incoming = comm.all_to_allv<SketchEntry>(outgoing);
    std::vector<SketchEntry> shard_entries;
    for (const auto& part : incoming) {
      shard_entries.insert(shard_entries.end(), part.begin(), part.end());
    }
    const double route_s = seconds(route_span.finish());
    obs::StageSpan build_span(obs, "P:build-shard");
    const SketchTable shard =
        SketchTable::from_entries(params.trials, shard_entries);
    const double build_s = seconds(build_span.finish());

    // S4a: sketch each local query segment into one reused scratch and
    // send one probe per distinct k-mer to the k-mer's owner: a fixed
    // stride of words holding the segment, the k-mer and its trial set.
    comm.fault_point("P:map");
    obs::StageSpan map_span(obs, "P:map");
    const std::size_t words =
        trial_set_words(static_cast<std::size_t>(params.trials));
    const std::size_t stride = 2 + words;
    MapScratch scratch(subjects.size());
    SketchKeys& keys = scratch.keys();
    std::vector<SegmentMapping> local_segments;
    std::vector<std::vector<std::uint64_t>> probes(
        static_cast<std::size_t>(p));
    for (io::SeqId read = slot.queries.first; read < slot.queries.second;
         ++read) {
      for (const EndSegment& segment : extract_end_segments(
               read, reads.bases(read), params.segment_length)) {
        const std::uint64_t segment_id = local_segments.size();
        SegmentMapping mapping;
        mapping.read = read;
        mapping.end = segment.end;
        mapping.offset = segment.offset;
        mapping.segment_length =
            static_cast<std::uint32_t>(segment.bases.size());
        local_segments.push_back(mapping);

        const std::size_t distinct =
            sketch_keys(segment.bases, params, scheme, hashes,
                        scratch.sketch_scratch(), keys);
        for (std::size_t d = 0; d < distinct; ++d) {
          std::vector<std::uint64_t>& out =
              probes[static_cast<std::size_t>(kmer_owner(keys.kmers[d], p))];
          out.push_back(segment_id);
          out.push_back(keys.kmers[d]);
          const std::uint64_t* const set = keys.trials.data() + d * words;
          out.insert(out.end(), set, set + words);
        }
      }
    }

    // S4b: exchange probes; each owner answers a probe with the postings
    // of its k-mer whose trial is in the probe's set, in probe order.
    const auto incoming_probes = comm.all_to_allv<std::uint64_t>(probes);
    const FlatSketchIndex& index = shard.flat();
    std::vector<std::vector<HitReply>> replies(static_cast<std::size_t>(p));
    std::uint64_t probed = 0;
    for (int src = 0; src < p; ++src) {
      const std::vector<std::uint64_t>& stream =
          incoming_probes[static_cast<std::size_t>(src)];
      for (std::size_t at = 0; at + stride <= stream.size(); at += stride) {
        const auto segment = static_cast<std::uint32_t>(stream[at]);
        const KmerCode kmer = stream[at + 1];
        const std::uint64_t* const set = stream.data() + at + 2;
        const FlatSketchIndex::Run run =
            index.probe(index.home(FlatSketchIndex::hash(kmer)), kmer, probed);
        for (std::uint32_t i = run.begin; i < run.end; ++i) {
          const std::uint32_t trial = index.trial_ids()[i];
          if (((set[trial / 64] >> (trial % 64)) & 1) != 0) {
            replies[static_cast<std::size_t>(src)].push_back(
                {segment, trial, index.subjects()[i]});
          }
        }
      }
    }
    const auto incoming_replies = comm.all_to_allv<HitReply>(replies);
    slot.shared = true;  // this rank's shard answered all probes

    // S4c: every owner answered in segment order, so one cursor per source
    // collects a segment's postings; they vote by map_segment's rule.
    std::vector<std::size_t> cursors(static_cast<std::size_t>(p), 0);
    for (std::size_t segment = 0; segment < local_segments.size(); ++segment) {
      keys.matched.clear();
      keys.starts.assign(static_cast<std::size_t>(params.trials) + 1, 0);
      for (std::size_t src = 0; src < cursors.size(); ++src) {
        const std::vector<HitReply>& part = incoming_replies[src];
        for (std::size_t& at = cursors[src];
             at < part.size() && part[at].segment == segment; ++at) {
          keys.matched.push_back({part[at].trial, part[at].subject});
          ++keys.starts[part[at].trial + 1];
        }
      }
      local_segments[segment].result =
          vote_matched(scratch, params.trials, params.min_votes);
    }

    slot.mappings = std::move(local_segments);
    slot.times = {comm.rank(), sketch_s, route_s, build_s,
                  seconds(map_span.finish())};
    slot.table_entries = shard.size();
  };
  // For the partitioned strategy the interesting volume is everything the
  // collectives moved (entry routing + probes + replies + result gather).
  const auto all_bytes = [](const mpisim::CommStats& comm) {
    return comm.collective_bytes;
  };
  return run_ranks(subjects, reads, params, ranks, scheme, robust, obs,
                   stages, all_bytes);
}

DistributedResult run_staged(const io::SequenceSet& subjects,
                             const io::SequenceSet& reads,
                             const MapParams& params, int ranks,
                             const mpisim::NetworkModel& model,
                             SketchScheme scheme,
                             const RobustnessOptions& robust,
                             const obs::ObsHooks& obs) {
  params.validate();
  mpisim::StagedExecutor executor(ranks, model);
  if (!robust.fault_plan.empty()) {
    executor.set_fault_plan(&robust.fault_plan);
  }
  DistributedResult result;
  result.report.ranks = ranks;

  util::WallTimer load_timer;
  const auto subject_ranges = partition_by_bases(subjects, ranks);
  const auto read_ranges = partition_by_bases(reads, ranks);
  const HashFamily hashes(params.trials, params.seed);
  result.report.load_s = load_timer.elapsed_s();

  // S2: sketch local subjects, one rank at a time (timed in isolation).
  std::vector<std::vector<SketchEntry>> per_rank_entries(
      static_cast<std::size_t>(ranks));
  executor.compute_step("S2:sketch-subjects", [&](int rank) {
    const auto [begin, end] = subject_ranges[static_cast<std::size_t>(rank)];
    per_rank_entries[static_cast<std::size_t>(rank)] =
        sketch_subjects(subjects, begin, end, params, scheme, hashes);
  });

  // S3: allgatherv of the union volume, then each rank rebuilds the global
  // table. The rebuild is identical work at every rank, so it is performed
  // once and charged uniformly.
  std::vector<SketchEntry> global_entries;
  for (const auto& entries : per_rank_entries) {
    global_entries.insert(global_entries.end(), entries.begin(),
                          entries.end());
  }
  const std::uint64_t volume = global_entries.size() * sizeof(SketchEntry);
  executor.comm_allgatherv("S3:allgather", volume);

  // Each rank performs an identical rebuild of the global table; measure it
  // once and charge that uniform cost (running it p times would only repeat
  // the same measurement).
  SketchTable global(params.trials);
  const double build_s = util::time_void([&] {
    global = SketchTable::from_entries(params.trials, global_entries);
  });
  const MappingEngine engine(subjects, params, scheme, std::move(global));

  // S4: map local queries per rank.
  const MapRequest rank_request = map_request_for(obs);
  std::vector<std::vector<SegmentMapping>> per_rank_mappings(
      static_cast<std::size_t>(ranks));
  executor.compute_step("S4:map-queries", [&](int rank) {
    const auto [begin, end] = read_ranges[static_cast<std::size_t>(rank)];
    per_rank_mappings[static_cast<std::size_t>(rank)] =
        engine.run(reads, begin, end, rank_request).mappings;
  });

  for (auto& partial : per_rank_mappings) {
    result.mappings.insert(result.mappings.end(), partial.begin(),
                           partial.end());
    result.report.queries_mapped += partial.size();
  }
  sort_by_read(result.mappings);

  result.report.sketch_subjects_s = executor.step_s("S2:sketch-subjects");
  result.report.allgather_s = executor.comm_s();
  result.report.build_global_s = build_s;
  result.report.map_queries_s = executor.step_s("S4:map-queries");
  result.report.sketch_bytes = volume;
  result.report.failed_ranks = executor.failed_ranks();
  result.report.faults_injected = executor.faults_injected();
  for (const mpisim::StagedExecutor::StepRecord& step : executor.steps()) {
    if (step.name.rfind("recover:", 0) == 0) {
      result.report.recover_s += step.cost_s;
    }
  }
  // The model re-executes lost work, so the output is always complete; the
  // failed ranks' mapping counts show up as recovered, never degraded.
  for (const int rank : result.report.failed_ranks) {
    result.report.queries_recovered +=
        per_rank_mappings[static_cast<std::size_t>(rank)].size();
  }

  // Per-rank stage times from the executor's step records: S2/S4 vary per
  // rank; S3 (collective + uniform rebuild) is charged identically.
  result.report.per_rank.resize(static_cast<std::size_t>(ranks));
  for (int rank = 0; rank < ranks; ++rank) {
    RankStageTimes& times =
        result.report.per_rank[static_cast<std::size_t>(rank)];
    times.rank = rank;
    times.allgather_s = result.report.allgather_s;
    times.build_s = build_s;
  }
  for (const mpisim::StagedExecutor::StepRecord& step : executor.steps()) {
    if (step.is_comm || step.name.rfind("recover:", 0) == 0) continue;
    for (std::size_t r = 0;
         r < step.per_rank_s.size() &&
         r < result.report.per_rank.size();
         ++r) {
      if (step.name == "S2:sketch-subjects") {
        result.report.per_rank[r].sketch_s = step.per_rank_s[r];
      } else if (step.name == "S4:map-queries") {
        result.report.per_rank[r].map_s = step.per_rank_s[r];
      }
    }
  }

  if (obs.tracer != nullptr) executor.export_trace(*obs.tracer);
  if (obs.metrics != nullptr) {
    executor.publish(*obs.metrics);
    result.report.publish(*obs.metrics);
  }
  return result;
}

}  // namespace jem::core
