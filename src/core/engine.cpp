#include "core/engine.hpp"

#include <algorithm>
#include <atomic>
#include <exception>
#include <future>
#include <map>
#include <mutex>
#include <optional>
#include <stdexcept>
#include <string_view>
#include <thread>
#include <utility>

#include "io/fasta.hpp"
#include "util/bounded_queue.hpp"
#include "util/thread_pool.hpp"
#include "util/timer.hpp"

namespace jem::core {

void EngineStats::publish(obs::Registry& registry) const {
  using obs::Unit;
  const auto ns = [](double s) {
    return s > 0.0 ? static_cast<std::uint64_t>(s * 1e9) : 0;
  };
  registry.counter("engine.batches").add(batches);
  registry.counter("engine.reads").add(reads);
  registry.counter("engine.segments").add(segments);
  registry.counter("engine.read_ns", Unit::kNanos).add(ns(read_s));
  registry.counter("engine.map_ns", Unit::kNanos).add(ns(map_s));
  registry.counter("engine.emit_ns", Unit::kNanos).add(ns(emit_s));
  registry.counter("engine.queue_wait_ns", Unit::kNanos)
      .add(ns(queue_wait_s));
  registry.counter("engine.wall_ns", Unit::kNanos).add(ns(wall_s));
  registry.counter("engine.faults_injected").add(faults_injected);
  registry.counter("engine.batches_skipped").add(batches_skipped);
}

void MapRequest::validate() const {
  if (min_votes && *min_votes < 1) {
    throw std::invalid_argument("MapRequest: min_votes must be >= 1");
  }
}

namespace {

/// Live metric handles an instrumented run resolves once up front, so the
/// per-batch path never does a name lookup. All null when no registry is
/// attached.
struct EngineMetrics {
  obs::Histogram* batch_reads = nullptr;
  obs::Histogram* batch_map_ns = nullptr;
  obs::Gauge* queue_gauge = nullptr;

  explicit EngineMetrics(obs::Registry* registry) {
    if (registry == nullptr) return;
    batch_reads = &registry->histogram("engine.batch.reads");
    batch_map_ns =
        &registry->histogram("engine.batch.map_ns", obs::Unit::kNanos);
    queue_gauge = &registry->gauge("engine.queue.depth");
  }

  void record_batch(std::size_t reads, std::uint64_t map_ns) const {
    if (batch_reads == nullptr) return;
    batch_reads->record(reads);
    batch_map_ns->record(map_ns);
  }
};

std::size_t effective_batch_size(const MapRequest& request, std::size_t n,
                                 std::size_t threads) {
  if (request.batch_size > 0) return request.batch_size;
  if (request.backend == MapBackend::kSerial) {
    return std::max<std::size_t>(n, 1);
  }
  // Auto: ~64 batches per worker. Workers claim them from one cursor, so a
  // worker the host slows down leaves the others at most one small batch
  // to wait for.
  const std::size_t chunks = std::max<std::size_t>(1, threads * 64);
  return std::max<std::size_t>(1, (n + chunks - 1) / chunks);
}

void check_min_votes(const MapRequest& request, const MapParams& params) {
  if (request.min_votes && *request.min_votes < params.min_votes) {
    throw std::invalid_argument(
        "MapRequest: min_votes override below MapParams::min_votes");
  }
}

/// Segments reads [begin, end) yield in the request's mode: the output
/// slots a run sizes before it maps them.
std::size_t count_segments(const io::SequenceSet& reads, io::SeqId begin,
                           io::SeqId end, MapMode mode,
                           std::uint32_t segment_length) {
  std::size_t count = 0;
  for (io::SeqId read = begin; read < end; ++read) {
    count += segment_count(reads.length(read), segment_length,
                           mode == MapMode::kTiled);
  }
  return count;
}

/// The per-read mapping loop every run shares, and the only loop in the
/// library that maps a range of reads: reads [begin, end) segment by
/// segment on the caller's scratch, in the requested mode, min_votes
/// override applied, written to the slots of `mappings` (or `topx` in
/// kTopX mode) from `at` on. The slots must exist: count_segments sizes
/// them.
void map_range(const JemMapper& mapper, const io::SequenceSet& reads,
               io::SeqId begin, io::SeqId end, const MapRequest& request,
               MapScratch& scratch, std::vector<SegmentMapping>& mappings,
               std::vector<SegmentTopX>& topx, std::size_t at) {
  const std::uint32_t length = mapper.params().segment_length;
  const std::uint32_t threshold = request.min_votes.value_or(0);
  for (io::SeqId read = begin; read < end; ++read) {
    const std::string_view bases = reads.bases(read);
    const std::vector<EndSegment> segments =
        request.mode == MapMode::kTiled
            ? extract_tiled_segments(read, bases, length)
            : extract_end_segments(read, bases, length);
    for (const EndSegment& segment : segments) {
      const auto segment_length =
          static_cast<std::uint32_t>(segment.bases.size());
      if (request.mode == MapMode::kTopX) {
        SegmentTopX& slot = topx[at++];
        slot = {read, segment.end, segment_length,
                mapper.map_segment_topx(segment.bases, request.top_x,
                                        scratch)};
        // Hits are sorted by votes descending: the filtered tail is a
        // suffix.
        while (!slot.hits.empty() && slot.hits.back().votes < threshold) {
          slot.hits.pop_back();
        }
      } else {
        SegmentMapping& slot = mappings[at++];
        slot = {read, segment.end, segment.offset, segment_length,
                mapper.map_segment(segment.bases, scratch)};
        if (slot.result.mapped() && slot.result.votes < threshold) {
          slot.result = MapResult{};
        }
      }
    }
  }
}

/// Sizes the output of a run in `mode` to `count` segments.
void size_output(MapMode mode, std::size_t count,
                 std::vector<SegmentMapping>& mappings,
                 std::vector<SegmentTopX>& topx) {
  if (mode == MapMode::kTopX) {
    topx.resize(count);
  } else {
    mappings.resize(count);
  }
}

}  // namespace

MappingEngine::MappingEngine(const io::SequenceSet& subjects, MapParams params,
                             SketchScheme scheme)
    : mapper_(subjects, params, scheme) {}

MappingEngine::MappingEngine(const io::SequenceSet& subjects, MapParams params,
                             SketchScheme scheme, SketchTable table)
    : mapper_(subjects, params, scheme, std::move(table)) {}

MapReport MappingEngine::run(const io::SequenceSet& reads,
                             const MapRequest& request) const {
  return run(reads, 0, static_cast<io::SeqId>(reads.size()), request);
}

MapReport MappingEngine::run(const io::SequenceSet& reads, io::SeqId begin,
                             io::SeqId end, const MapRequest& request) const {
  if (begin > end || end > reads.size()) {
    throw std::invalid_argument("MappingEngine::run: read range [" +
                                std::to_string(begin) + ", " +
                                std::to_string(end) + ") outside [0, " +
                                std::to_string(reads.size()) + ")");
  }
  request.validate();
  check_min_votes(request, mapper_.params());

  const obs::ObsHooks& obs = request.obs;
  const EngineMetrics metrics(obs.metrics);
  obs::StageSpan run_span(obs, "engine.run");

  const util::WallTimer wall;
  MapReport report;

  const std::size_t n = end - begin;
  const std::size_t threads = util::default_threads(request.threads);
  const std::size_t batch = effective_batch_size(request, n, threads);
  const std::size_t num_batches = n == 0 ? 0 : (n + batch - 1) / batch;
  const std::uint32_t length = mapper_.params().segment_length;
  const auto batch_reads = [&](std::size_t b) {
    return std::pair<io::SeqId, io::SeqId>(
        static_cast<io::SeqId>(begin + b * batch),
        static_cast<io::SeqId>(begin + std::min(n, (b + 1) * batch)));
  };

  // Every batch's first output slot, so each worker writes its batches'
  // segments in place and the report is in read order without a merge.
  std::vector<std::size_t> first_slot(num_batches + 1, 0);
  for (std::size_t b = 0; b < num_batches; ++b) {
    const auto [first, last] = batch_reads(b);
    first_slot[b + 1] =
        first_slot[b] + count_segments(reads, first, last, request.mode,
                                       length);
  }
  size_output(request.mode, first_slot.back(), report.mappings, report.topx);

  // kSerial maps on the caller's thread; kPool runs one worker per thread
  // (never more than batches). Each worker owns one scratch and claims
  // batch indices from one cursor until none is left.
  const std::size_t workers = std::min(
      request.backend == MapBackend::kPool ? threads : 1, num_batches);
  std::atomic<std::size_t> cursor{0};
  std::atomic<std::uint64_t> map_ns{0};
  const auto work = [&](std::size_t) {
    MapScratch scratch(mapper_.subjects().size());
    if (obs.metrics != nullptr) {
      scratch.hotpath().sample_every = kHotpathSampleEvery;
    }
    for (std::size_t b = cursor++; b < num_batches; b = cursor++) {
      obs::StageSpan span(obs, "map.batch", &map_ns);
      const auto [first, last] = batch_reads(b);
      map_range(mapper_, reads, first, last, request, scratch,
                report.mappings, report.topx, first_slot[b]);
      metrics.record_batch(last - first, span.finish());
    }
    if (obs.metrics != nullptr) scratch.hotpath().publish(*obs.metrics);
  };
  std::optional<util::ThreadPool> pool;
  if (workers > 1) pool.emplace(workers);
  util::parallel_for_each(pool ? &*pool : nullptr, workers, work);

  EngineStats& stats = report.stats;
  stats.batches = num_batches;
  stats.reads = n;
  stats.segments = report.mappings.size() + report.topx.size();
  stats.map_s = static_cast<double>(map_ns.load()) * 1e-9;
  run_span.finish();
  stats.wall_s = wall.elapsed_s();
  if (obs.metrics != nullptr) stats.publish(*obs.metrics);
  return report;
}

EngineStats MappingEngine::run_stream(io::BatchStream& stream,
                                      const MapRequest& request,
                                      const BatchSink& sink) const {
  request.validate();
  check_min_votes(request, mapper_.params());

  const obs::ObsHooks& obs = request.obs;
  const EngineMetrics metrics(obs.metrics);
  if (obs.tracer != nullptr) obs.tracer->set_thread_label("reader");
  obs::StageSpan run_span(obs, "engine.run_stream");

  const util::WallTimer wall;
  EngineStats stats;

  // Fault sites "stream.next", "map" and "sink" are keyed by batch index, so
  // decisions are independent of worker interleaving. Delays stall the
  // stage; aborts throw FaultAbort naming the site.
  const util::FaultPlan& plan = request.fault_plan;
  std::atomic<std::uint64_t> faults_fired{0};
  const auto batch_fault = [&](const char* site, std::uint64_t index) {
    if (plan.empty()) return;
    const util::FaultDecision decision = plan.decide(0, site, index);
    if (decision.action == util::FaultAction::kDelay) {
      ++faults_fired;
      std::this_thread::sleep_for(decision.delay);
    } else if (decision.action == util::FaultAction::kAbort) {
      ++faults_fired;
      throw util::FaultAbort(0, site);
    }
  };

  // Three-stage pipeline for every backend: this thread parses and pushes
  // ReadBatches into a bounded queue (backpressure), pool workers map them,
  // and whichever worker completes the next in-order batch flushes it to
  // the sink. kSerial is the same pipeline with one mapping worker.
  const std::size_t workers = request.backend == MapBackend::kPool
                                  ? util::default_threads(request.threads)
                                  : 1;
  util::BoundedQueue<io::ReadBatch> queue(kStreamQueueDepth);

  std::atomic<std::uint64_t> map_ns{0};
  std::atomic<std::uint64_t> pop_wait_ns{0};
  std::atomic<std::uint64_t> emit_ns{0};
  std::atomic<std::uint64_t> reads_mapped{0};
  std::atomic<std::uint64_t> segments{0};

  std::mutex emit_mutex;
  std::map<std::uint64_t, BatchResult> pending;  // guarded by emit_mutex
  // First batch index this run will see: a resumed stream has already
  // consumed the journaled prefix, so the in-order emitter starts there.
  std::uint64_t next_emit = stream.batches_read();  // guarded by emit_mutex
  std::exception_ptr sink_error;                    // guarded by emit_mutex
  std::exception_ptr worker_error;                  // guarded by emit_mutex

  // Flushes the ready in-order prefix. Holding the lock serializes sink
  // calls and keeps them in batch order.
  const auto flush_locked = [&] {
    while (sink_error == nullptr) {
      const auto it = pending.find(next_emit);
      if (it == pending.end()) break;
      try {
        batch_fault("sink", next_emit);
        sink(it->second);
      } catch (...) {
        sink_error = std::current_exception();
        queue.close();  // aborts the producer and idle workers
      }
      pending.erase(it);
      ++next_emit;
    }
  };

  const auto worker = [&] {
    MapScratch scratch(mapper_.subjects().size());
    if (obs.metrics != nullptr) {
      scratch.hotpath().sample_every = kHotpathSampleEvery;
    }
    try {
      while (true) {
        obs::StageSpan pop_span(obs, "queue.wait", &pop_wait_ns);
        std::optional<io::ReadBatch> raw = queue.pop();
        pop_span.finish();
        if (!raw) break;
        batch_fault("map", raw->index);

        obs::StageSpan map_span(obs, "map.batch", &map_ns);
        BatchResult result;
        result.batch = std::move(*raw);
        const io::SequenceSet& reads = result.batch.reads;
        const auto batch_reads = static_cast<io::SeqId>(reads.size());
        size_output(request.mode,
                    count_segments(reads, 0, batch_reads, request.mode,
                                   mapper_.params().segment_length),
                    result.mappings, result.topx);
        map_range(mapper_, reads, 0, batch_reads, request, scratch,
                  result.mappings, result.topx, 0);
        metrics.record_batch(batch_reads, map_span.finish());
        reads_mapped += batch_reads;
        segments += result.mappings.size() + result.topx.size();

        obs::StageSpan emit_span(obs, "emit", &emit_ns);
        {
          std::lock_guard lock(emit_mutex);
          pending.emplace(result.batch.index, std::move(result));
          flush_locked();
        }
        emit_span.finish();
      }
      if (obs.metrics != nullptr) scratch.hotpath().publish(*obs.metrics);
    } catch (...) {
      // A dying worker must shut the whole pipeline down: without the
      // close() the producer could block forever on a full queue.
      {
        std::lock_guard lock(emit_mutex);
        if (worker_error == nullptr) worker_error = std::current_exception();
      }
      queue.close();
    }
  };

  util::ThreadPool pool(workers);
  std::vector<std::future<void>> futures;
  futures.reserve(workers);
  for (std::size_t i = 0; i < workers; ++i) {
    futures.push_back(pool.submit([&, i] {
      if (obs.tracer != nullptr) {
        obs.tracer->set_thread_label("worker " + std::to_string(i));
      }
      worker();
    }));
  }

  std::exception_ptr read_error;
  std::atomic<std::uint64_t> read_ns{0};
  std::atomic<std::uint64_t> push_wait_ns{0};
  try {
    io::ReadBatch batch;
    while (true) {
      obs::StageSpan read_span(obs, "read", &read_ns);
      const bool more = stream.next(batch);
      read_span.finish();
      if (!more) break;
      batch_fault("stream.next", batch.index);

      obs::StageSpan push_span(obs, "queue.push_wait", &push_wait_ns);
      const bool pushed = queue.push(std::move(batch));
      push_span.finish();
      if (pushed && obs.enabled()) {
        // Depth after our own push: 0 means the workers are keeping up,
        // pinned at capacity means the mappers are the bottleneck.
        const auto depth = static_cast<std::int64_t>(queue.size());
        if (metrics.queue_gauge != nullptr) metrics.queue_gauge->set(depth);
        if (obs.tracer != nullptr) {
          obs.tracer->counter_sample("engine.queue.depth",
                                     static_cast<double>(depth));
        }
      }
      if (!pushed) break;  // pipeline aborted by a sink or worker failure
    }
  } catch (...) {
    read_error = std::current_exception();  // rethrown after shutdown
  }
  queue.close();
  for (std::future<void>& future : futures) future.get();

  stats.batches = next_emit - stream.batches_skipped();
  stats.reads = reads_mapped.load();
  stats.segments = segments.load();
  stats.read_s = static_cast<double>(read_ns.load()) * 1e-9;
  stats.map_s = static_cast<double>(map_ns.load()) * 1e-9;
  stats.emit_s = static_cast<double>(emit_ns.load()) * 1e-9;
  stats.queue_wait_s =
      static_cast<double>(pop_wait_ns.load() + push_wait_ns.load()) * 1e-9;
  stats.faults_injected = faults_fired.load();
  stats.batches_skipped = stream.batches_skipped();
  run_span.finish();
  stats.wall_s = wall.elapsed_s();
  if (obs.metrics != nullptr) stats.publish(*obs.metrics);
  if (metrics.queue_gauge != nullptr) metrics.queue_gauge->set(0);

  // Failure priority: the reader saw the error first, then the sink, then
  // any worker.
  for (const std::exception_ptr& error :
       {read_error, sink_error, worker_error}) {
    if (error != nullptr) std::rethrow_exception(error);
  }
  return stats;
}

}  // namespace jem::core
