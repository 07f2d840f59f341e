// The lazy-update hit counter of the paper's S4 implementation notes, and
// the O(n)-reset counter it is ablated against. The system votes through
// core::VoteCounter (core/hit_counter.hpp); these stay as oracles: the
// reference query path (oracle/kernels.hpp) counts its votes and per-trial
// marks with a LazyHitCounter pair, the VoteCounter tests check the fused
// counter against that pair, and bench/ablation_counters times both
// counters here.
//
// LazyHitCounter is an array A[1..n] of <count, stamp> tuples that never
// needs a bulk reset. Whenever a new query (or query-trial) begins, the
// caller bumps the epoch; stale slots are detected by comparing their
// stamp against the current epoch and are reinitialized on first touch.
// This replaces an O(n) clear per query with O(1) amortized work per hit.
#pragma once

#include <algorithm>
#include <cstdint>
#include <vector>

#include "io/sequence.hpp"

namespace jem::oracle {

class LazyHitCounter {
 public:
  explicit LazyHitCounter(std::size_t num_subjects)
      : slots_(num_subjects) {}

  [[nodiscard]] std::size_t size() const noexcept { return slots_.size(); }

  /// Starts a new counting round (the paper: "set A[i].v to j and reset the
  /// counter" — here a single epoch bump invalidates every slot at once).
  void new_round() noexcept { ++epoch_; }

  /// Increments the subject's count for the current round and returns the
  /// new count.
  std::uint32_t increment(io::SeqId subject) noexcept {
    Slot& slot = slots_[subject];
    if (slot.epoch != epoch_) {
      slot.epoch = epoch_;
      slot.count = 0;
    }
    return ++slot.count;
  }

  /// Marks the subject as seen this round; returns true only on the first
  /// call of the round (used for per-trial hit-set deduplication).
  bool first_time(io::SeqId subject) noexcept {
    Slot& slot = slots_[subject];
    if (slot.epoch != epoch_) {
      slot.epoch = epoch_;
      slot.count = 1;
      return true;
    }
    if (slot.count == 0) {
      slot.count = 1;
      return true;
    }
    return false;
  }

  /// Current-round count (0 if untouched this round).
  [[nodiscard]] std::uint32_t count(io::SeqId subject) const noexcept {
    const Slot& slot = slots_[subject];
    return slot.epoch == epoch_ ? slot.count : 0;
  }

 private:
  struct Slot {
    std::uint64_t epoch = 0;
    std::uint32_t count = 0;
  };
  std::vector<Slot> slots_;
  std::uint64_t epoch_ = 1;  // starts above the all-zero initial stamps
};

/// The naive alternative used by the counter ablation: a plain count array
/// cleared with an O(n) pass per round.
class ResettingHitCounter {
 public:
  explicit ResettingHitCounter(std::size_t num_subjects)
      : counts_(num_subjects, 0) {}

  [[nodiscard]] std::size_t size() const noexcept { return counts_.size(); }

  void new_round() noexcept {
    std::fill(counts_.begin(), counts_.end(), 0u);
  }

  std::uint32_t increment(io::SeqId subject) noexcept {
    return ++counts_[subject];
  }

  [[nodiscard]] std::uint32_t count(io::SeqId subject) const noexcept {
    return counts_[subject];
  }

 private:
  std::vector<std::uint32_t> counts_;
};

}  // namespace jem::oracle
