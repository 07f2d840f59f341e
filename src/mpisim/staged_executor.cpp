#include "mpisim/staged_executor.hpp"

#include <algorithm>
#include <stdexcept>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "util/timer.hpp"

namespace jem::mpisim {

StagedExecutor::StagedExecutor(int num_ranks, NetworkModel model)
    : num_ranks_(num_ranks),
      model_(model),
      failed_(static_cast<std::size_t>(num_ranks), 0) {
  if (num_ranks <= 0) {
    throw std::invalid_argument("StagedExecutor: num_ranks must be positive");
  }
}

std::vector<int> StagedExecutor::failed_ranks() const {
  std::vector<int> ranks;
  for (int rank = 0; rank < num_ranks_; ++rank) {
    if (failed_[static_cast<std::size_t>(rank)] != 0) ranks.push_back(rank);
  }
  return ranks;
}

util::FaultDecision StagedExecutor::decide_fault(int rank,
                                                 std::string_view name,
                                                 std::uint64_t invocation) {
  if (plan_ == nullptr || plan_->empty()) return {};
  const util::FaultDecision decision = plan_->decide(rank, name, invocation);
  if (decision.action != util::FaultAction::kNone) ++faults_injected_;
  return decision;
}

void StagedExecutor::compute_step(std::string_view name,
                                  const std::function<void(int)>& fn) {
  const std::uint64_t invocation = [&] {
    const auto it = site_calls_.find(name);
    if (it != site_calls_.end()) return it->second++;
    site_calls_.emplace(std::string(name), 1);
    return std::uint64_t{0};
  }();

  StepRecord record;
  record.name = std::string(name);
  record.per_rank_s.reserve(static_cast<std::size_t>(num_ranks_));
  std::vector<double> recovered;
  for (int rank = 0; rank < num_ranks_; ++rank) {
    const auto r = static_cast<std::size_t>(rank);
    const util::FaultDecision decision = decide_fault(rank, name, invocation);
    if (decision.action == util::FaultAction::kAbort) failed_[r] = 1;
    // The work always runs (downstream steps need the results to exist);
    // a failed rank's time is billed to the recovery step instead.
    util::WallTimer timer;
    fn(rank);
    const double elapsed = timer.elapsed_s();
    if (failed_[r] != 0) {
      record.per_rank_s.push_back(0.0);
      recovered.push_back(elapsed);
      continue;
    }
    double modeled = elapsed;
    if (decision.action == util::FaultAction::kDelay) {
      const double delay_s =
          static_cast<double>(decision.delay.count()) / 1000.0;
      modeled += delay_s;
      injected_delay_s_ += delay_s;
    }
    record.per_rank_s.push_back(modeled);
  }
  record.cost_s =
      *std::max_element(record.per_rank_s.begin(), record.per_rank_s.end());
  steps_.push_back(std::move(record));

  if (!recovered.empty()) {
    // Lost partitions are redone serially by a survivor: sum, not max.
    StepRecord recover;
    recover.name = "recover:" + std::string(name);
    double sum = 0.0;
    for (const double s : recovered) sum += s;
    recover.cost_s = sum;
    recover.per_rank_s = std::move(recovered);
    steps_.push_back(std::move(recover));
  }
}

void StagedExecutor::comm_delay_s(std::string_view name, double& cost) {
  const std::uint64_t invocation = [&] {
    const auto it = site_calls_.find(name);
    if (it != site_calls_.end()) return it->second++;
    site_calls_.emplace(std::string(name), 1);
    return std::uint64_t{0};
  }();
  const util::FaultDecision decision =
      decide_fault(util::FaultPlan::kAnyRank, name, invocation);
  if (decision.action == util::FaultAction::kDelay) {
    const double delay_s =
        static_cast<double>(decision.delay.count()) / 1000.0;
    cost += delay_s;
    injected_delay_s_ += delay_s;
  }
}

void StagedExecutor::comm_allgatherv(std::string_view name,
                                     std::uint64_t total_bytes) {
  double cost = model_.allgatherv_s(num_ranks_, total_bytes);
  comm_delay_s(name, cost);
  steps_.push_back({std::string(name), true, cost, {}, total_bytes});
}

double StagedExecutor::total_s() const noexcept {
  double sum = 0.0;
  for (const StepRecord& step : steps_) sum += step.cost_s;
  return sum;
}

double StagedExecutor::compute_s() const noexcept {
  double sum = 0.0;
  for (const StepRecord& step : steps_) {
    if (!step.is_comm) sum += step.cost_s;
  }
  return sum;
}

double StagedExecutor::comm_s() const noexcept {
  double sum = 0.0;
  for (const StepRecord& step : steps_) {
    if (step.is_comm) sum += step.cost_s;
  }
  return sum;
}

double StagedExecutor::step_s(std::string_view name) const noexcept {
  double sum = 0.0;
  for (const StepRecord& step : steps_) {
    if (step.name == name) sum += step.cost_s;
  }
  return sum;
}

namespace {

std::uint64_t to_ns(double seconds) {
  return seconds <= 0.0 ? 0
                        : static_cast<std::uint64_t>(seconds * 1e9 + 0.5);
}

}  // namespace

void StagedExecutor::export_trace(obs::Tracer& tracer,
                                  std::uint64_t base_ns) const {
  const int recovery_track = num_ranks_;
  for (int rank = 0; rank < num_ranks_; ++rank) {
    tracer.set_track_label(rank, "rank " + std::to_string(rank));
  }
  tracer.set_track_label(recovery_track, "recovery");

  std::uint64_t now_ns = base_ns;
  for (const StepRecord& step : steps_) {
    const std::uint64_t cost_ns = to_ns(step.cost_s);
    if (step.is_comm) {
      // A collective occupies every rank for the same modeled window.
      for (int rank = 0; rank < num_ranks_; ++rank) {
        tracer.record(step.name, rank, now_ns, cost_ns);
      }
    } else if (step.name.starts_with("recover:")) {
      // Recovered partitions replay serially on the survivor's track.
      std::uint64_t at_ns = now_ns;
      for (const double part_s : step.per_rank_s) {
        const std::uint64_t part_ns = to_ns(part_s);
        tracer.record(step.name, recovery_track, at_ns, part_ns);
        at_ns += part_ns;
      }
    } else {
      for (std::size_t r = 0; r < step.per_rank_s.size(); ++r) {
        tracer.record(step.name, static_cast<int>(r), now_ns,
                      to_ns(step.per_rank_s[r]));
      }
    }
    now_ns += cost_ns;
  }
}

void StagedExecutor::publish(obs::Registry& registry) const {
  std::uint64_t comm_steps = 0;
  std::uint64_t recover_steps = 0;
  for (const StepRecord& step : steps_) {
    if (step.is_comm) ++comm_steps;
    if (step.name.starts_with("recover:")) ++recover_steps;
  }
  registry.counter("staged.steps").add(steps_.size());
  registry.counter("staged.comm_steps").add(comm_steps);
  registry.counter("staged.recover_steps").add(recover_steps);
  registry.counter("staged.faults_injected").add(faults_injected_);
  registry.counter("staged.total_ns", obs::Unit::kNanos).add(to_ns(total_s()));
  registry.counter("staged.compute_ns", obs::Unit::kNanos)
      .add(to_ns(compute_s()));
  registry.counter("staged.comm_ns", obs::Unit::kNanos).add(to_ns(comm_s()));
  registry.counter("staged.injected_delay_ns", obs::Unit::kNanos)
      .add(to_ns(injected_delay_s_));
}

}  // namespace jem::mpisim
