// StagedExecutor: deterministic bulk-synchronous execution of an SPMD
// program for performance studies on hosts with fewer cores than ranks.
//
// The paper measured strong scaling on a 9-node cluster (p = 4..64). This
// container exposes a single CPU core, so running 64 communicating threads
// measures only contention, not the algorithm. JEM-mapper is bulk-synchronous
// (compute supersteps separated by one collective), which means its parallel
// runtime decomposes exactly as
//
//     Σ_steps max_rank(compute_time) + Σ_collectives network_time
//
// The staged executor evaluates that decomposition directly: each rank's
// share of a compute superstep runs *sequentially* and is wall-timed in
// isolation, and each collective is charged with the α-β NetworkModel using
// the real payload volume. The result is the modeled parallel runtime and a
// per-step breakdown — the quantities behind Table II, Fig 7 and Fig 8.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "mpisim/network_model.hpp"
#include "util/fault_plan.hpp"

namespace jem::obs {
class Registry;  // obs/metrics.hpp
class Tracer;    // obs/trace.hpp
}  // namespace jem::obs

namespace jem::mpisim {

class StagedExecutor {
 public:
  StagedExecutor(int num_ranks, NetworkModel model = {});

  [[nodiscard]] int num_ranks() const noexcept { return num_ranks_; }
  [[nodiscard]] const NetworkModel& model() const noexcept { return model_; }

  /// Attaches a fault plan (not owned; null detaches). Every step name is a
  /// fault site keyed by (rank, name, per-name invocation count). Because
  /// the executor is a performance *model*, faults alter the modeled
  /// timeline, not real execution: kDelay adds the delay to the rank's
  /// modeled step time, and kAbort marks the rank failed — its work still
  /// runs (the results must exist) but is re-billed to a "recover:<name>"
  /// step, modeling a survivor redoing the lost partition serially. kDrop
  /// has no modeled cost and is ignored.
  void set_fault_plan(const util::FaultPlan* plan) noexcept { plan_ = plan; }

  /// Ranks marked failed by kAbort decisions so far, ascending.
  [[nodiscard]] std::vector<int> failed_ranks() const;

  [[nodiscard]] std::uint64_t faults_injected() const noexcept {
    return faults_injected_;
  }

  /// Runs fn(rank) for every rank in turn, timing each. The step's parallel
  /// cost is the maximum per-rank time.
  void compute_step(std::string_view name, const std::function<void(int)>& fn);

  /// Charges an allgatherv whose union payload is `total_bytes`.
  void comm_allgatherv(std::string_view name, std::uint64_t total_bytes);

  struct StepRecord {
    std::string name;
    bool is_comm = false;
    double cost_s = 0.0;              // max-rank time or modeled comm time
    std::vector<double> per_rank_s;   // empty for comm steps
    std::uint64_t bytes = 0;          // comm steps only
  };

  [[nodiscard]] const std::vector<StepRecord>& steps() const noexcept {
    return steps_;
  }

  /// Modeled parallel makespan: sum of step costs.
  [[nodiscard]] double total_s() const noexcept;
  [[nodiscard]] double compute_s() const noexcept;
  [[nodiscard]] double comm_s() const noexcept;

  /// Cost of the step with the given name (0 if absent; sums duplicates).
  [[nodiscard]] double step_s(std::string_view name) const noexcept;

  /// Total fault-injected delay folded into the modeled timeline so far —
  /// the modeled-vs-actual gap: total_s() minus this is what the run would
  /// have cost without the injected delays.
  [[nodiscard]] double injected_delay_s() const noexcept {
    return injected_delay_s_;
  }

  /// Synthesizes the modeled timeline into `tracer` via record(): compute
  /// steps become one span per rank on track `tid == rank` (labeled
  /// "rank N"), comm steps one span across every rank's track, and
  /// "recover:<step>" re-bills one span per recovered partition on a
  /// dedicated "recovery" track (tid == num_ranks). Timestamps start at
  /// `base_ns` and advance by each step's modeled cost, so the exported
  /// Chrome trace reads as the bulk-synchronous schedule the model charges
  /// — not as wall-clock of the sequential measurement.
  void export_trace(obs::Tracer& tracer, std::uint64_t base_ns = 0) const;

  /// Adds the run's modeled totals to `registry` under `staged.*` names:
  /// step/fault counters plus kNanos counters for total, compute, comm and
  /// injected-delay time.
  void publish(obs::Registry& registry) const;

 private:
  /// Fault decision for the current invocation of `name` at `rank`
  /// (kAnyRank for comm steps). Counts fired faults.
  util::FaultDecision decide_fault(int rank, std::string_view name,
                                   std::uint64_t invocation);

  /// Adds any injected delay for this comm step's invocation to `cost`
  /// (comm faults are keyed rank-agnostically on kAnyRank).
  void comm_delay_s(std::string_view name, double& cost);

  int num_ranks_;
  NetworkModel model_;
  std::vector<StepRecord> steps_;

  const util::FaultPlan* plan_ = nullptr;
  std::map<std::string, std::uint64_t, std::less<>> site_calls_;
  std::vector<char> failed_;
  std::uint64_t faults_injected_ = 0;
  double injected_delay_s_ = 0.0;
};

}  // namespace jem::mpisim
