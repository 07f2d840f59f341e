// MappingEngine — the unified batched/streaming execution layer over
// JemMapper (Algorithm 2). One MapRequest selects what to map (end
// segments, whole-read tiling, or top-x candidate lists) and how to run it
// (serial or thread pool; batch size; thread count).
//
// Each execution shape has exactly one executor, shared by both backends
// and built on the same per-batch kernel:
//  * run()        — in-memory: the query set (or a [begin, end) range of
//    it) is already loaded; batches are index ranges over it. The output
//    is sized up front from each read's segment count (segment_count), and
//    the caller's thread (kSerial) or each pool worker (kPool) claims batch
//    indices from one atomic cursor and writes each read's segments into
//    that read's slots. Output is bit-identical to mapping the reads'
//    segments one by one with JemMapper::map_segment, for every (mode,
//    backend, batch size) combination (golden-tested against a sequential
//    test oracle).
//  * run_stream() — streaming: a three-stage pipeline in the shape minimap2
//    uses for heavy traffic. The caller's thread parses ReadBatches and
//    pushes them into a BoundedQueue (backpressure: parsing stalls when the
//    mappers fall behind), pool workers (one for kSerial) map batches with
//    a reused per-thread MapScratch, and an in-order emitter hands results
//    to the sink in batch order. Memory is O(kStreamQueueDepth · batch) in
//    the query set.
//
// Every run fills an EngineStats observability block (batches, segments/s,
// queue-wait, per-stage times) that examples/jem_map prints and bench/
// records.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <vector>

#include "core/mapper.hpp"
#include "core/params.hpp"
#include "io/batch_stream.hpp"
#include "obs/obs.hpp"
#include "util/fault_plan.hpp"

namespace jem::core {

/// Streaming only: ReadBatches buffered between reader and mappers. Bounds
/// memory and provides backpressure.
inline constexpr std::size_t kStreamQueueDepth = 4;

/// Hot-path sampling period for core.hotpath.* counters: every Nth segment
/// is measured in full. Only active when MapRequest::obs.metrics is set.
inline constexpr std::uint32_t kHotpathSampleEvery = 16;

/// What to map per read.
enum class MapMode {
  kEnds,   // the paper's two l-length end segments per read
  kTiled,  // containment mode: tile the whole read with l-length segments
  kTopX,   // end segments, reporting up to top_x candidates each
};

/// Where the map stage runs.
enum class MapBackend {
  kSerial,  // caller's thread (run) / one pipeline worker (run_stream)
  kPool,    // util::ThreadPool workers
};

/// One mapping job description — the single configuration point for every
/// execution mode.
struct MapRequest {
  MapMode mode = MapMode::kEnds;
  MapBackend backend = MapBackend::kSerial;

  /// Reads per batch. 0 = auto: one batch for kSerial, ~64 batches per
  /// worker otherwise (in-memory), and the BatchStream's size (streaming).
  std::size_t batch_size = 0;

  /// Worker count for kPool, in memory and streaming. 0 = hardware
  /// concurrency. Ignored by kSerial, which maps on one thread.
  std::size_t threads = 0;

  /// Candidates per segment in kTopX mode.
  std::size_t top_x = 3;

  /// Optional tightening of MapParams::min_votes for this run only. Must be
  /// >= the mapper's configured min_votes (the sketch table cannot recover
  /// hits below the threshold it was queried with).
  std::optional<std::uint32_t> min_votes;

  /// Deterministic fault schedule for chaos testing (docs/robustness.md).
  /// Streaming only; decisions are keyed by batch index at sites
  /// "stream.next", "map" and "sink", so the same plan replays the same
  /// schedule regardless of thread interleaving. A delay stalls the stage,
  /// an abort throws util::FaultAbort naming the site; a drop is ignored
  /// (an in-process queue cannot lose a batch). An empty plan (the default)
  /// costs nothing.
  util::FaultPlan fault_plan;

  /// Optional observability sinks (not owned; docs/observability.md). With
  /// a metrics registry attached the run publishes engine.* metrics,
  /// per-batch histograms, and the mapper's sampled core.hotpath.*
  /// counters; with a tracer attached every pipeline stage records spans.
  /// A default ObsHooks{} disables all of it.
  obs::ObsHooks obs;

  void validate() const;
};

/// Observability block of one engine run. Since the obs layer landed this
/// struct is a *view*: the run accumulates into the same counters that feed
/// `MapRequest::obs.metrics`, and the struct is materialized from them at
/// run end (publish() writes the identical values into a registry under
/// `engine.*` names, so struct consumers and metrics consumers can never
/// disagree).
///
/// Units, precisely:
///  * read_s is wall-clock seconds spent inside stream parsing, measured on
///    the reader thread only.
///  * map_s / emit_s / queue_wait_s are CPU-seconds *summed across all
///    workers* (and, for queue_wait_s, the producer's push waits too). With
///    N workers each may legitimately exceed wall_s by up to a factor of N
///    — they are utilization numbers, not elapsed time.
///  * wall_s is elapsed wall-clock time of the whole run; segments_per_s()
///    is the only throughput derived from it.
struct EngineStats {
  std::uint64_t batches = 0;
  std::uint64_t reads = 0;
  std::uint64_t segments = 0;   // mapped units emitted (incl. unmapped rows)
  double read_s = 0.0;          // parsing, reader-thread wall seconds
  double map_s = 0.0;           // map stage, CPU-seconds summed over workers
  double emit_s = 0.0;          // emit + sink, CPU-seconds summed over workers
  double queue_wait_s = 0.0;    // producer full-waits + worker empty-waits,
                                // CPU-seconds summed over all threads
  double wall_s = 0.0;          // whole-run elapsed wall clock

  std::uint64_t faults_injected = 0;  // fault-plan decisions that fired
  std::uint64_t batches_skipped = 0;  // resume fast-forward past the journal

  /// End-to-end throughput in segments per second of *wall* time (not
  /// summed CPU time — on an N-worker run this is N-fold smaller than
  /// segments divided by map_s).
  [[nodiscard]] double segments_per_s() const noexcept {
    return wall_s > 0.0 ? static_cast<double>(segments) / wall_s : 0.0;
  }

  /// Adds this run's values to `registry` under `engine.*` metric names
  /// (counters for the tallies, kNanos counters for the stage times, and
  /// the derived throughput as a gauge). This is the single mapping between
  /// the struct view and the registry view.
  void publish(obs::Registry& registry) const;
};

/// Result of an in-memory run. Exactly one of `mappings` (kEnds / kTiled)
/// and `topx` (kTopX) is populated, matching the request's mode.
struct MapReport {
  std::vector<SegmentMapping> mappings;
  std::vector<SegmentTopX> topx;
  EngineStats stats;
};

class MappingEngine {
 public:
  /// Builds an owned JemMapper over all subjects: parallel S2 plus the
  /// sort-based table build, on util::default_threads(0) workers.
  MappingEngine(const io::SequenceSet& subjects, MapParams params,
                SketchScheme scheme = SketchScheme::kJem);

  /// Adopts a pre-built (e.g. loaded or allgathered) sketch table.
  MappingEngine(const io::SequenceSet& subjects, MapParams params,
                SketchScheme scheme, SketchTable table);

  [[nodiscard]] const JemMapper& mapper() const noexcept { return mapper_; }
  [[nodiscard]] const MapParams& params() const noexcept {
    return mapper_.params();
  }

  /// In-memory batched run over an already-loaded query set. Read ids in
  /// the report are global (indices into `reads`).
  [[nodiscard]] MapReport run(const io::SequenceSet& reads,
                              const MapRequest& request) const;

  /// The same run over reads [begin, end) only (one rank's partition, for
  /// example). Read ids stay global. Throws std::invalid_argument when
  /// begin > end or end > reads.size().
  [[nodiscard]] MapReport run(const io::SequenceSet& reads, io::SeqId begin,
                              io::SeqId end, const MapRequest& request) const;

  /// One mapped batch handed to the streaming sink. Read ids inside
  /// `mappings` / `topx` are local to `batch.reads`; add
  /// `batch.first_record` to globalize them.
  struct BatchResult {
    io::ReadBatch batch;
    std::vector<SegmentMapping> mappings;
    std::vector<SegmentTopX> topx;
  };
  using BatchSink = std::function<void(const BatchResult&)>;

  /// Streaming pipelined run: reader (caller's thread) -> bounded queue ->
  /// map workers (one for kSerial) -> in-order emitter. The sink is invoked
  /// in batch order, one batch at a time, never concurrently, so a sink
  /// that journals each batch after writing it (docs/persistence.md) needs
  /// no locking. request.batch_size is ignored here (the stream's own batch
  /// size applies). On a failure the pipeline shuts down and the first
  /// failure is rethrown: the reader's (a ParseError, or a FaultAbort at
  /// "stream.next"), else the sink's, else a worker's.
  EngineStats run_stream(io::BatchStream& stream, const MapRequest& request,
                         const BatchSink& sink) const;

 private:
  JemMapper mapper_;
};

}  // namespace jem::core
