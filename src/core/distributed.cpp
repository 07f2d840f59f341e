#include "core/distributed.hpp"

#include <algorithm>
#include <atomic>
#include <mutex>
#include <stdexcept>

#include "core/engine.hpp"
#include "core/index_serde.hpp"
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
  registry.counter("distributed.shards_loaded").add(shards_loaded);
  registry.counter("distributed.shards_saved").add(shards_saved);
  registry.counter("distributed.shard_load_errors").add(shard_load_errors);
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

}  // namespace

namespace {

mpisim::SpmdOptions spmd_options_for(const RobustnessOptions& robust,
                                     const obs::ObsHooks& obs) {
  mpisim::SpmdOptions options;
  options.comm = robust.comm;
  if (!robust.fault_plan.empty()) options.fault_plan = &robust.fault_plan;
  options.obs = obs;
  return options;
}

/// The engine request every distributed map step runs: one serial batch
/// that publishes into the run's metrics registry. The tracer stays off so
/// a distributed trace keeps only its S2-S4 spans.
MapRequest map_request_for(const obs::ObsHooks& obs) {
  MapRequest request;
  request.obs.metrics = obs.metrics;
  return request;
}

/// The driver-side recovery path shared by both SPMD strategies: assembles
/// the output from each rank's deposited local results and re-maps every
/// un-deposited (failed) rank's query partition against a freshly built
/// *full* sketch table — which is identical to the replicated S_global, so
/// recovered partitions match what the failed rank would have produced.
std::vector<SegmentMapping> recover_lost_partitions(
    const io::SequenceSet& subjects, const io::SequenceSet& reads,
    const MapParams& params, SketchScheme scheme,
    const std::vector<std::pair<io::SeqId, io::SeqId>>& read_ranges,
    const std::vector<std::vector<SegmentMapping>>& deposits,
    const std::vector<char>& deposited, const MapRequest& request,
    std::uint64_t& queries_recovered) {
  std::vector<SegmentMapping> assembled;
  const MappingEngine recovery_engine(subjects, params, scheme);
  for (std::size_t r = 0; r < deposits.size(); ++r) {
    if (deposited[r] != 0) {
      assembled.insert(assembled.end(), deposits[r].begin(),
                       deposits[r].end());
      continue;
    }
    const auto [q_begin, q_end] = read_ranges[r];
    const std::vector<SegmentMapping> recovered =
        recovery_engine.run(reads, q_begin, q_end, request).mappings;
    queries_recovered += recovered.size();
    assembled.insert(assembled.end(), recovered.begin(), recovered.end());
  }
  return assembled;
}

}  // namespace

DistributedResult run_distributed(const io::SequenceSet& subjects,
                                  const io::SequenceSet& reads,
                                  const MapParams& params, int ranks,
                                  SketchScheme scheme, int threads_per_rank,
                                  const RobustnessOptions& robust,
                                  const IndexCacheOptions& index_cache,
                                  const obs::ObsHooks& obs) {
  params.validate();
  // Checked here: MapRequest::threads == 0 would mean every hardware
  // thread, not an error.
  if (threads_per_rank < 1) {
    throw std::invalid_argument(
        "run_distributed: threads_per_rank must be >= 1");
  }
  MapRequest rank_request = map_request_for(obs);
  if (threads_per_rank > 1) {
    rank_request.backend = MapBackend::kPool;
    rank_request.threads = static_cast<std::size_t>(threads_per_rank);
  }
  DistributedResult result;
  result.report.ranks = ranks;

  std::vector<SegmentMapping> gathered;
  std::mutex report_mutex;
  double max_sketch_s = 0.0;
  double max_map_s = 0.0;
  double allgather_s = 0.0;
  double build_global_s = 0.0;
  std::uint64_t sketch_bytes = 0;
  std::uint64_t table_entries_max = 0;
  std::uint64_t queries_mapped = 0;
  std::atomic<std::uint64_t> shards_loaded{0};
  std::atomic<std::uint64_t> shards_saved{0};
  std::atomic<std::uint64_t> shard_load_errors{0};

  util::WallTimer load_timer;
  const auto subject_ranges = partition_by_bases(subjects, ranks);
  const auto read_ranges = partition_by_bases(reads, ranks);
  const double load_s = load_timer.elapsed_s();

  // Per-rank slots for the recovery path: each rank deposits its local
  // results before the final gather and flags how far it got (distinct
  // vector elements, written only by the owning rank — no locking needed).
  const auto p = static_cast<std::size_t>(ranks);
  std::vector<std::vector<SegmentMapping>> deposits(p);
  std::vector<char> deposited(p, 0);
  std::vector<char> shared_sketch(p, 0);
  std::vector<RankStageTimes> rank_times(p);

  const mpisim::SpmdReport spmd = mpisim::run_spmd_ft(
      ranks,
      [&](mpisim::Comm& comm) {
        const int rank = comm.rank();
        const auto r = static_cast<std::size_t>(rank);
        const auto [s_begin, s_end] = subject_ranges[r];
        const auto [q_begin, q_end] = read_ranges[r];

        // Every rank derives the shared hash family from the experiment
        // seed.
        const HashFamily hashes(params.trials, params.seed);

        // S2: sketch local subjects — or load this rank's cached shard
        // artifact. The artifact fingerprint binds it to (params, scheme,
        // subject set) and the filename to (p, rank), which determine the
        // subject range; any defect falls back to sketching, so a corrupt
        // or stale cache can never change the output.
        comm.fault_point("S2:sketch");
        obs::StageSpan sketch_span(obs, "S2:sketch");
        std::vector<SketchEntry> local_entries;
        bool shard_loaded = false;
        if (index_cache.enabled() && index_cache.load) {
          try {
            local_entries = load_index(index_cache.shard_path(rank, ranks),
                                       params, scheme, subjects)
                                .to_entries();
            shard_loaded = true;
            shards_loaded.fetch_add(1, std::memory_order_relaxed);
          } catch (const io::ArtifactError& error) {
            // A missing shard is a plain cache miss (cold cache); anything
            // else is a rejected artifact worth surfacing in the report.
            if (error.reason() != io::ArtifactReason::kOpenFailed) {
              shard_load_errors.fetch_add(1, std::memory_order_relaxed);
            }
          }
        }
        const auto threads = static_cast<std::size_t>(threads_per_rank);
        if (!shard_loaded) {
          local_entries = sketch_subjects(subjects, s_begin, s_end, params,
                                          scheme, hashes, threads);
          if (index_cache.enabled() && index_cache.save) {
            save_index(index_cache.shard_path(rank, ranks),
                       SketchTable::from_entries(params.trials,
                                                 local_entries, threads),
                       params, scheme, subjects);
            shards_saved.fetch_add(1, std::memory_order_relaxed);
          }
        }
        const double sketch_s =
            static_cast<double>(sketch_span.finish()) * 1e-9;

        // S3: allgatherv the sketch entries; rebuild the replicated table.
        obs::StageSpan gather_span(obs, "S3:allgather");
        const std::vector<SketchEntry> global_entries =
            comm.allgatherv<SketchEntry>(local_entries);
        const double gather_s =
            static_cast<double>(gather_span.finish()) * 1e-9;
        shared_sketch[r] = 1;  // this rank's entries reached the union

        obs::StageSpan build_span(obs, "S3:build");
        SketchTable global =
            SketchTable::from_entries(params.trials, global_entries, threads);
        const double build_s = static_cast<double>(build_span.finish()) * 1e-9;

        // S4: map local queries — on this rank's thread, or on a
        // rank-private engine pool in hybrid mode.
        comm.fault_point("S4:map");
        obs::StageSpan map_span(obs, "S4:map");
        const MappingEngine engine(subjects, params, scheme,
                                   std::move(global));
        const std::vector<SegmentMapping> local_mappings =
            engine.run(reads, q_begin, q_end, rank_request).mappings;
        const double map_s = static_cast<double>(map_span.finish()) * 1e-9;

        deposits[r] = local_mappings;
        deposited[r] = 1;
        rank_times[r] = {rank, sketch_s, gather_s, build_s, map_s};

        // Gather results at rank 0.
        std::vector<MappingWire> wire;
        wire.reserve(local_mappings.size());
        for (const SegmentMapping& mapping : local_mappings) {
          wire.push_back(to_wire(mapping));
        }
        const auto all_wire = comm.gatherv<MappingWire>(wire, /*root=*/0);

        std::lock_guard lock(report_mutex);
        max_sketch_s = std::max(max_sketch_s, sketch_s);
        max_map_s = std::max(max_map_s, map_s);
        allgather_s = std::max(allgather_s, gather_s);
        build_global_s = std::max(build_global_s, build_s);
        table_entries_max = std::max(
            table_entries_max,
            static_cast<std::uint64_t>(engine.mapper().table().size()));
        queries_mapped += local_mappings.size();
        if (rank == 0) {
          sketch_bytes = global_entries.size() * sizeof(SketchEntry);
          for (const auto& part : all_wire) {
            for (const MappingWire& w : part) gathered.push_back(from_wire(w));
          }
        }
      },
      spmd_options_for(robust, obs));

  std::uint64_t queries_recovered = 0;
  double recover_s = 0.0;
  if (!spmd.ok()) {
    // Assemble from the per-rank deposits (the rank-0 gather may itself be
    // incomplete — or rank 0 may be the casualty) and re-map what was lost.
    util::WallTimer recover_timer;
    gathered = recover_lost_partitions(subjects, reads, params, scheme,
                                       read_ranges, deposits, deposited,
                                       map_request_for(obs),
                                       queries_recovered);
    recover_s = recover_timer.elapsed_s();
    queries_mapped += queries_recovered;
  }

  sort_by_read(gathered);
  result.mappings = std::move(gathered);
  result.report.load_s = load_s;
  result.report.sketch_subjects_s = max_sketch_s;
  result.report.allgather_s = allgather_s;
  result.report.build_global_s = build_global_s;
  result.report.map_queries_s = max_map_s;
  result.report.sketch_bytes = sketch_bytes;
  result.report.queries_mapped = queries_mapped;
  result.report.table_entries_max = table_entries_max;
  result.report.failed_ranks = spmd.failed_ranks();
  result.report.queries_recovered = queries_recovered;
  result.report.recover_s = recover_s;
  result.report.faults_injected = spmd.faults_injected;
  result.report.shards_loaded = shards_loaded.load();
  result.report.shards_saved = shards_saved.load();
  result.report.shard_load_errors = shard_load_errors.load();
  for (std::size_t r = 0; r < rank_times.size(); ++r) {
    rank_times[r].rank = static_cast<int>(r);  // a dead rank's slot is zeroed
  }
  result.report.per_rank = std::move(rank_times);
  result.report.comm = spmd.stats;
  for (const int rank : result.report.failed_ranks) {
    if (shared_sketch[static_cast<std::size_t>(rank)] == 0) {
      result.report.degraded = true;  // its sketch never reached survivors
    }
  }
  if (obs.metrics != nullptr) result.report.publish(*obs.metrics);
  return result;
}

namespace {

/// Owner rank of a k-mer under the partitioned-table strategy.
int kmer_owner(KmerCode kmer, int ranks) {
  return static_cast<int>(util::mix64(kmer) %
                          static_cast<std::uint64_t>(ranks));
}

/// Wire records for the query-routing all-to-alls.
struct QueryProbe {
  std::uint32_t segment = 0;  // local segment index at the origin rank
  std::uint32_t trial = 0;
  KmerCode kmer = 0;
};
static_assert(sizeof(QueryProbe) == 16);

struct HitReply {
  std::uint32_t segment = 0;
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
  DistributedResult result;
  result.report.ranks = ranks;

  const auto subject_ranges = partition_by_bases(subjects, ranks);
  const auto read_ranges = partition_by_bases(reads, ranks);

  std::vector<SegmentMapping> gathered;
  std::mutex report_mutex;
  std::uint64_t table_entries_max = 0;
  std::uint64_t queries_mapped = 0;

  // Recovery slots, one per rank (written only by the owner; see the
  // replicated driver). Unlike the replicated strategy, *any* abort before
  // the replies exchange degrades survivors: the dead rank's table shard
  // stops answering probes, so surviving queries lose those votes.
  const auto num_ranks = static_cast<std::size_t>(ranks);
  std::vector<std::vector<SegmentMapping>> deposits(num_ranks);
  std::vector<char> deposited(num_ranks, 0);
  std::vector<char> served(num_ranks, 0);
  std::vector<RankStageTimes> rank_times(num_ranks);

  const mpisim::SpmdReport spmd =
      mpisim::run_spmd_ft(ranks, [&](mpisim::Comm& comm) {
    const int rank = comm.rank();
    const int p = comm.size();
    const auto [s_begin, s_end] =
        subject_ranges[static_cast<std::size_t>(rank)];
    const auto [q_begin, q_end] = read_ranges[static_cast<std::size_t>(rank)];
    const HashFamily hashes(params.trials, params.seed);

    // S2: sketch local subjects, then route every entry to its k-mer's
    // owner rank (one all-to-all replaces the allgather union).
    comm.fault_point("P:route");
    obs::StageSpan sketch_span(obs, "P:sketch");
    const std::vector<SketchEntry> local =
        sketch_subjects(subjects, s_begin, s_end, params, scheme, hashes);
    const double sketch_s = static_cast<double>(sketch_span.finish()) * 1e-9;
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
    const double route_s = static_cast<double>(route_span.finish()) * 1e-9;
    obs::StageSpan build_span(obs, "P:build-shard");
    const SketchTable shard =
        SketchTable::from_entries(params.trials, shard_entries);
    const double build_s = static_cast<double>(build_span.finish()) * 1e-9;

    // S4a: sketch local query segments and bucket the probes by owner.
    comm.fault_point("P:map");
    obs::StageSpan map_span(obs, "P:map");
    std::vector<SegmentMapping> local_segments;
    std::vector<std::vector<QueryProbe>> probes(static_cast<std::size_t>(p));
    for (io::SeqId read = q_begin; read < q_end; ++read) {
      for (const EndSegment& segment : extract_end_segments(
               read, reads.bases(read), params.segment_length)) {
        const auto segment_id =
            static_cast<std::uint32_t>(local_segments.size());
        SegmentMapping mapping;
        mapping.read = read;
        mapping.end = segment.end;
        mapping.offset = segment.offset;
        mapping.segment_length =
            static_cast<std::uint32_t>(segment.bases.size());
        local_segments.push_back(mapping);

        const Sketch sketch =
            make_sketch(segment.bases, params, scheme, hashes);
        for (int t = 0; t < params.trials; ++t) {
          for (KmerCode kmer :
               sketch.per_trial[static_cast<std::size_t>(t)]) {
            probes[static_cast<std::size_t>(kmer_owner(kmer, p))].push_back(
                {segment_id, static_cast<std::uint32_t>(t), kmer});
          }
        }
      }
    }

    // S4b: exchange probes; owners answer with every matching posting.
    const auto incoming_probes = comm.all_to_allv<QueryProbe>(probes);
    std::vector<std::vector<HitReply>> replies(static_cast<std::size_t>(p));
    for (int src = 0; src < p; ++src) {
      for (const QueryProbe& probe :
           incoming_probes[static_cast<std::size_t>(src)]) {
        for (io::SeqId subject :
             shard.flat().lookup(static_cast<int>(probe.trial),
                                 probe.kmer)) {
          replies[static_cast<std::size_t>(src)].push_back(
              {probe.segment, probe.trial, subject});
        }
      }
    }
    auto incoming_replies = comm.all_to_allv<HitReply>(replies);
    served[static_cast<std::size_t>(rank)] = 1;  // shard answered all probes

    // S4c: aggregate votes locally. Sorting by (segment, trial, subject)
    // and deduplicating realizes the per-trial hit *sets* of Algorithm 2.
    std::vector<HitReply> hits;
    for (auto& part : incoming_replies) {
      hits.insert(hits.end(), part.begin(), part.end());
    }
    std::sort(hits.begin(), hits.end(),
              [](const HitReply& a, const HitReply& b) {
                if (a.segment != b.segment) return a.segment < b.segment;
                if (a.trial != b.trial) return a.trial < b.trial;
                return a.subject < b.subject;
              });
    hits.erase(std::unique(hits.begin(), hits.end(),
                           [](const HitReply& a, const HitReply& b) {
                             return a.segment == b.segment &&
                                    a.trial == b.trial &&
                                    a.subject == b.subject;
                           }),
               hits.end());

    LazyHitCounter votes(subjects.size());
    std::size_t cursor = 0;
    while (cursor < hits.size()) {
      const std::uint32_t segment = hits[cursor].segment;
      votes.new_round();
      MapResult best;
      while (cursor < hits.size() && hits[cursor].segment == segment) {
        const io::SeqId subject = hits[cursor].subject;
        const std::uint32_t count = votes.increment(subject);
        if (count > best.votes ||
            (count == best.votes && subject < best.subject)) {
          best.votes = count;
          best.subject = subject;
        }
        ++cursor;
      }
      if (best.votes >= params.min_votes) {
        local_segments[segment].result = best;
      }
    }

    const double map_s = static_cast<double>(map_span.finish()) * 1e-9;
    deposits[static_cast<std::size_t>(rank)] = local_segments;
    deposited[static_cast<std::size_t>(rank)] = 1;
    rank_times[static_cast<std::size_t>(rank)] = {rank, sketch_s, route_s,
                                                  build_s, map_s};

    // Gather results at rank 0 (same as the replicated driver).
    std::vector<MappingWire> wire;
    wire.reserve(local_segments.size());
    for (const SegmentMapping& mapping : local_segments) {
      wire.push_back(to_wire(mapping));
    }
    const auto all_wire = comm.gatherv<MappingWire>(wire, /*root=*/0);

    std::lock_guard lock(report_mutex);
    table_entries_max =
        std::max(table_entries_max,
                 static_cast<std::uint64_t>(shard.size()));
    queries_mapped += local_segments.size();
    if (rank == 0) {
      for (const auto& part : all_wire) {
        for (const MappingWire& w : part) gathered.push_back(from_wire(w));
      }
    }
  }, spmd_options_for(robust, obs));

  std::uint64_t queries_recovered = 0;
  double recover_s = 0.0;
  if (!spmd.ok()) {
    util::WallTimer recover_timer;
    gathered = recover_lost_partitions(subjects, reads, params, scheme,
                                       read_ranges, deposits, deposited,
                                       map_request_for(obs),
                                       queries_recovered);
    recover_s = recover_timer.elapsed_s();
    queries_mapped += queries_recovered;
  }

  sort_by_read(gathered);
  result.mappings = std::move(gathered);
  result.report.queries_mapped = queries_mapped;
  result.report.table_entries_max = table_entries_max;
  // For the partitioned strategy the interesting volume is everything the
  // collectives moved (entry routing + probes + replies + result gather).
  result.report.sketch_bytes = spmd.stats.collective_bytes;
  result.report.failed_ranks = spmd.failed_ranks();
  result.report.queries_recovered = queries_recovered;
  result.report.recover_s = recover_s;
  result.report.faults_injected = spmd.faults_injected;
  for (std::size_t r = 0; r < rank_times.size(); ++r) {
    rank_times[r].rank = static_cast<int>(r);
    result.report.sketch_subjects_s =
        std::max(result.report.sketch_subjects_s, rank_times[r].sketch_s);
    result.report.allgather_s =
        std::max(result.report.allgather_s, rank_times[r].allgather_s);
    result.report.build_global_s =
        std::max(result.report.build_global_s, rank_times[r].build_s);
    result.report.map_queries_s =
        std::max(result.report.map_queries_s, rank_times[r].map_s);
  }
  result.report.per_rank = std::move(rank_times);
  result.report.comm = spmd.stats;
  for (const int rank : result.report.failed_ranks) {
    if (served[static_cast<std::size_t>(rank)] == 0) {
      result.report.degraded = true;  // its shard stopped answering probes
    }
  }
  if (obs.metrics != nullptr) {
    result.report.publish(*obs.metrics);
    publish_kernel_lanes(*obs.metrics);
  }
  return result;
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
