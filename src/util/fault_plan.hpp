// FaultPlan — deterministic fault injection for the runtime's concurrency
// layers (mpisim collectives, the StagedExecutor, the engine's streaming
// pipeline). A plan is a pure description of which operations misbehave:
// every decision is keyed by (rank, site name, invocation count) and derived
// either from an explicit event list or from a seeded hash — never from
// wall-clock time or std::random_device — so the same plan replays the same
// fault schedule on every run. That is what makes the chaos tests in
// tests/chaos/ reproducible instead of flaky.
//
// Three fault actions:
//  * kDelay — the operation is stalled (really slept at runtime sites,
//    added to the modeled cost in the StagedExecutor). Delays must never
//    change results, only timing — the chaos suite asserts bit-identical
//    output under delay-only plans.
//  * kDrop  — the operation's payload is lost (a collective contributes an
//    empty payload, a serve connection is reset). Drops degrade output and
//    are always counted, never silent. The engine's streaming sites and
//    the checkpoint journal ignore them: an in-process queue cannot lose a
//    batch.
//  * kAbort — the site throws FaultAbort, modeling a crashed rank or a
//    wedged pipeline stage. Drivers with a recovery path (run_distributed*)
//    redistribute the lost work; everything else surfaces a structured
//    error instead of deadlocking.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <mutex>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

namespace jem::util {

enum class FaultAction : std::uint8_t { kNone, kDelay, kDrop, kAbort };

/// The outcome of one fault-plan query.
struct FaultDecision {
  FaultAction action = FaultAction::kNone;
  std::chrono::milliseconds delay{0};  // kDelay only
};

/// Thrown by fault sites on a kAbort decision. Carries where it fired so
/// failure reports can name the lost step.
class FaultAbort : public std::runtime_error {
 public:
  FaultAbort(int rank, std::string site)
      : std::runtime_error("fault injected: rank " + std::to_string(rank) +
                           " aborted at " + site),
        rank_(rank),
        site_(std::move(site)) {}

  [[nodiscard]] int rank() const noexcept { return rank_; }
  [[nodiscard]] const std::string& site() const noexcept { return site_; }

 private:
  int rank_;
  std::string site_;
};

/// Per-decision probabilities for FaultPlan::random. Probabilities are
/// evaluated in order abort, drop, delay and must sum to <= 1.
struct RandomFaultRates {
  double delay = 0.0;
  double drop = 0.0;
  double abort = 0.0;
  std::chrono::milliseconds max_delay{5};  // injected delays are in
                                           // [1, max_delay] ms
};

class FaultPlan {
 public:
  static constexpr int kAnyRank = -1;
  static constexpr std::uint64_t kAnyInvocation =
      ~static_cast<std::uint64_t>(0);

  /// One explicit fault: fires when rank, site and invocation all match
  /// (kAnyRank / empty site / kAnyInvocation are wildcards).
  struct Event {
    int rank = kAnyRank;
    std::string site;
    std::uint64_t invocation = kAnyInvocation;
    FaultAction action = FaultAction::kNone;
    std::chrono::milliseconds delay{0};
  };

  FaultPlan() = default;  // empty plan: decide() always returns kNone

  [[nodiscard]] bool empty() const noexcept {
    return events_.empty() && !random_;
  }

  /// Builder-style registration of explicit events; returns *this so plans
  /// read as one expression.
  FaultPlan& delay_at(int rank, std::string site, std::uint64_t invocation,
                      std::chrono::milliseconds delay);
  FaultPlan& drop_at(int rank, std::string site, std::uint64_t invocation);
  FaultPlan& abort_at(int rank, std::string site, std::uint64_t invocation);

  /// A probabilistic plan whose every decision is a pure function of
  /// (seed, rank, site, invocation) — deterministic across runs and across
  /// call orderings.
  [[nodiscard]] static FaultPlan random(std::uint64_t seed,
                                        const RandomFaultRates& rates);

  /// The core query: what happens to invocation `invocation` of `site` on
  /// `rank`? Pure and thread-safe (no internal state). Explicit events are
  /// checked first (registration order, first match wins), then the random
  /// component.
  [[nodiscard]] FaultDecision decide(int rank, std::string_view site,
                                     std::uint64_t invocation) const;

  [[nodiscard]] const std::vector<Event>& events() const noexcept {
    return events_;
  }

 private:
  std::vector<Event> events_;
  bool random_ = false;
  std::uint64_t seed_ = 0;
  RandomFaultRates rates_;
};

/// Per-participant stateful handle over a FaultPlan: counts invocations per
/// site so call sites only name themselves ("allgatherv", "ckpt.write") and
/// get sequential invocation numbering for free. One injector per rank (or
/// per pipeline); the counters are mutex-guarded so a multi-worker stage can
/// share one. A null/empty plan makes every call a cheap no-op.
class FaultInjector {
 public:
  /// `plan` may be null (no faults) and is not owned; it must outlive the
  /// injector.
  FaultInjector(const FaultPlan* plan, int rank)
      : plan_(plan != nullptr && !plan->empty() ? plan : nullptr),
        rank_(rank) {}

  [[nodiscard]] int rank() const noexcept { return rank_; }
  [[nodiscard]] bool active() const noexcept { return plan_ != nullptr; }

  /// Returns the decision for the next invocation of `site` (bumping the
  /// site's counter) without acting on it.
  [[nodiscard]] FaultDecision next(std::string_view site);

  /// Applies the next decision for `site`: sleeps on kDelay, throws
  /// FaultAbort on kAbort, and returns false when the operation should be
  /// dropped (true otherwise).
  bool fire(std::string_view site);

  [[nodiscard]] std::uint64_t delays_injected() const noexcept {
    return delays_.load();
  }
  [[nodiscard]] std::uint64_t drops_injected() const noexcept {
    return drops_.load();
  }
  [[nodiscard]] std::uint64_t aborts_injected() const noexcept {
    return aborts_.load();
  }
  [[nodiscard]] std::uint64_t faults_injected() const noexcept {
    return delays_.load() + drops_.load() + aborts_.load();
  }

 private:
  const FaultPlan* plan_;
  int rank_;

  std::mutex mutex_;
  std::vector<std::pair<std::string, std::uint64_t>> counters_;
  std::atomic<std::uint64_t> delays_{0};
  std::atomic<std::uint64_t> drops_{0};
  std::atomic<std::uint64_t> aborts_{0};
};

}  // namespace jem::util
