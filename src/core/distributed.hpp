// Distributed-memory JEM-mapper (paper §III-C, steps S1-S4):
//
//   S1 load/partition input so each rank holds ~M/p query bases and ~N/p
//      subject bases (contiguous ranges chosen by cumulative base count);
//   S2 each rank sketches its local subjects into S_local;
//   S3 allgatherv unions every S_local into the replicated S_global;
//   S4 each rank maps its local queries against S_global.
//
// Two execution modes share these per-rank kernels:
//  * run_distributed   — real SPMD over mpisim threads (one thread per
//    rank, real Allgatherv). Used for correctness: the output must equal
//    the sequential mapper's bit-for-bit.
//  * run_staged        — bulk-synchronous performance mode: per-rank compute
//    is executed sequentially and wall-timed, communication is charged via
//    the α-β network model. Produces the per-step breakdown behind
//    Table II / Fig 7 / Fig 8.
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "core/mapper.hpp"
#include "core/params.hpp"
#include "io/sequence_set.hpp"
#include "mpisim/communicator.hpp"
#include "mpisim/network_model.hpp"
#include "mpisim/staged_executor.hpp"
#include "obs/obs.hpp"

namespace jem::core {

/// Wire format for one mapped segment in the result gather.
struct MappingWire {
  io::SeqId read = 0;
  std::uint32_t end = 0;  // ReadEnd as integer
  std::uint32_t offset = 0;
  std::uint32_t segment_length = 0;
  io::SeqId subject = io::kInvalidSeqId;
  std::uint32_t votes = 0;
};
static_assert(sizeof(MappingWire) == 24);

[[nodiscard]] MappingWire to_wire(const SegmentMapping& mapping) noexcept;
[[nodiscard]] SegmentMapping from_wire(const MappingWire& wire) noexcept;

/// Fault configuration for the distributed drivers (docs/robustness.md).
/// Default-constructed = no faults.
struct RobustnessOptions {
  /// Deterministic fault schedule threaded through every mpisim collective
  /// plus the drivers' named sites ("S2:sketch", "S4:map", "P:route",
  /// "P:map"; staged mode uses its step names).
  util::FaultPlan fault_plan;
};

/// One rank's stage wall times within a distributed run — the S1-S4
/// imbalance view (docs/observability.md). The aggregate report fields are
/// maxima over these; the spread between ranks is what the partitioning
/// rule (S1) is supposed to minimize.
struct RankStageTimes {
  int rank = 0;
  double sketch_s = 0.0;     // S2: sketch local subjects
  double allgather_s = 0.0;  // S3: time inside the collective (incl. wait)
  double build_s = 0.0;      // S3: global table reconstruction
  double map_s = 0.0;        // S4: map local queries
};

/// Per-step timing/volume record of one distributed run (Fig 7a / Fig 8).
struct DistributedStepReport {
  int ranks = 1;
  double load_s = 0.0;          // S1: partition bookkeeping
  double sketch_subjects_s = 0.0;  // S2 (max over ranks in staged mode)
  double allgather_s = 0.0;     // S3: communication
  double build_global_s = 0.0;  // S3: table reconstruction (compute)
  double map_queries_s = 0.0;   // S4 (max over ranks in staged mode)
  std::uint64_t sketch_bytes = 0;  // union volume moved by S3
  std::uint64_t queries_mapped = 0;
  // Largest per-rank sketch-table size (entries). For the replicated
  // strategy this is the full table at every rank; for the partitioned
  // strategy it is the biggest shard — the memory-scaling story.
  std::uint64_t table_entries_max = 0;

  // Robustness accounting (all zero/false on a fault-free run).
  std::vector<int> failed_ranks;        // ranks that aborted, ascending
  std::uint64_t queries_recovered = 0;  // segments re-mapped by the driver
  double recover_s = 0.0;               // time spent redoing lost work
  std::uint64_t faults_injected = 0;    // fault decisions that fired

  /// True when a failure cost shared state the survivors depended on (a
  /// rank died before contributing its sketch to S3, or before answering
  /// probes in partitioned mode): every query is still mapped, but
  /// survivor results were computed against an incomplete table and may
  /// differ from the fault-free run. False means the recovered output is
  /// bit-identical to a fault-free run.
  bool degraded = false;

  /// Per-rank S2/S3/S4 stage times, ascending by rank (empty only for a
  /// rank that never reported, i.e. died before timing anything).
  std::vector<RankStageTimes> per_rank;

  /// Communication volume of the run, including the per-collective,
  /// per-rank byte breakdown (CommStats::per_site). Zero-valued for
  /// run_staged, whose communication is modeled, not executed.
  mpisim::CommStats comm;

  /// Adds this report to `registry` under `distributed.*` names: aggregate
  /// counters, kNanos stage-time counters and per-rank
  /// `distributed.rank<r>.<stage>_ns` counters.
  void publish(obs::Registry& registry) const;

  [[nodiscard]] double total_s() const noexcept {
    return load_s + sketch_subjects_s + allgather_s + build_global_s +
           map_queries_s;
  }
  [[nodiscard]] double compute_s() const noexcept {
    return total_s() - allgather_s;
  }
  /// Query throughput in segments per second of S4 (map_queries) time only
  /// — communication and sketching are excluded (Fig 7b). Returns 0 when
  /// nothing was mapped or S4 was not timed, so empty or unmeasured runs
  /// cannot report a bogus rate.
  [[nodiscard]] double query_throughput() const noexcept {
    if (queries_mapped == 0 || map_queries_s <= 0.0) return 0.0;
    return static_cast<double>(queries_mapped) / map_queries_s;
  }
};

struct DistributedResult {
  std::vector<SegmentMapping> mappings;  // ordered by read id then end
  DistributedStepReport report;
};

/// Real SPMD execution on `ranks` mpisim threads. `threads_per_rank` > 1
/// enables the hybrid MPI+threads mode (the paper's platform supported
/// OpenMPI and OpenMP side by side): each rank sketches its subjects (S2),
/// builds S_global (S3) and maps its local queries with that many threads.
/// Results are identical for any configuration. Each rank maps its query
/// range with MappingEngine::run; with a metrics registry in `obs`, those
/// runs add their engine.* and core.hotpath.* metrics to it, summed over
/// ranks.
///
/// With `robust` set, ranks that abort (injected faults) are tolerated: the
/// survivors complete, the driver re-maps every failed rank's query
/// partition against the full sketch table, and the report records
/// failed_ranks / queries_recovered / degraded. A rank that dies
/// after S3 (e.g. at site "S4:map") costs no shared state, so the output
/// is bit-identical to the fault-free run.
[[nodiscard]] DistributedResult run_distributed(
    const io::SequenceSet& subjects, const io::SequenceSet& reads,
    const MapParams& params, int ranks,
    SketchScheme scheme = SketchScheme::kJem, int threads_per_rank = 1,
    const RobustnessOptions& robust = {}, const obs::ObsHooks& obs = {});

/// Partitioned-table strategy: instead of replicating S_global at every
/// rank (the paper's S3, space O(n·m_s·T) *per process* — its §III-C1
/// space note), the table is sharded by k-mer hash across ranks and queries
/// are routed with two all-to-all exchanges: one probe per distinct
/// (segment, k-mer) pair out, carrying the k-mer's trial set, and the
/// postings in those trials back. The requester votes them through
/// map_segment's vote pass (vote_matched). Memory per rank drops to ~1/p of
/// the table at the price of all-to-all communication in the query phase.
/// Mappings are bit-identical to the replicated strategy.
[[nodiscard]] DistributedResult run_distributed_partitioned(
    const io::SequenceSet& subjects, const io::SequenceSet& reads,
    const MapParams& params, int ranks,
    SketchScheme scheme = SketchScheme::kJem,
    const RobustnessOptions& robust = {}, const obs::ObsHooks& obs = {});

/// Staged bulk-synchronous execution with modeled communication. A fault
/// plan in `robust` alters the modeled timeline (delays add to step costs;
/// an aborted rank's work is re-billed to "recover:<step>" records) —
/// results are always complete because the model re-executes lost work.
[[nodiscard]] DistributedResult run_staged(
    const io::SequenceSet& subjects, const io::SequenceSet& reads,
    const MapParams& params, int ranks,
    const mpisim::NetworkModel& model = {},
    SketchScheme scheme = SketchScheme::kJem,
    const RobustnessOptions& robust = {}, const obs::ObsHooks& obs = {});

}  // namespace jem::core
