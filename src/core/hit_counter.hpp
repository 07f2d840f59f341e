// The mapper's vote counter: the paper's S4 lazy-update counter, fused
// with the per-trial hit-set test. The unfused counters live with the test
// oracles (tests/oracle/hit_counters.hpp).
#pragma once

#include <cstdint>
#include <vector>

#include "io/sequence.hpp"

namespace jem::core {

/// The mapper's vote counter: one record {segment stamp, last trial,
/// count} per subject, so each posting of the fused vote pass costs one
/// access. It counts what a per-segment lazy counter of votes and a
/// per-trial lazy counter of first-time marks (the oracles' pair) count
/// together: a subject earns at most one vote per trial. Within a
/// segment, trials must be visited in ascending order (or at least never
/// revisited), so "last trial == t" is exactly "already seen in trial t".
class VoteCounter {
 public:
  explicit VoteCounter(std::size_t num_subjects) : records_(num_subjects) {}

  /// Starts a new segment: one stamp bump invalidates every record.
  void new_segment() noexcept { ++stamp_; }

  /// Records a posting of `subject` in `trial`. Returns the subject's new
  /// vote count on its first posting of the trial, and 0 on a repeat.
  std::uint32_t vote(io::SeqId subject, std::uint32_t trial) noexcept {
    Record& record = records_[subject];
    if (record.stamp != stamp_) {
      record = {stamp_, trial, 1};
      return 1;
    }
    if (record.trial == trial) return 0;
    record.trial = trial;
    return ++record.count;
  }

  /// Current-segment count (0 if untouched this segment).
  [[nodiscard]] std::uint32_t count(io::SeqId subject) const noexcept {
    const Record& record = records_[subject];
    return record.stamp == stamp_ ? record.count : 0;
  }

 private:
  struct Record {
    std::uint64_t stamp = 0;
    std::uint32_t trial = 0;
    std::uint32_t count = 0;
  };
  static_assert(sizeof(Record) == 16);
  std::vector<Record> records_;
  std::uint64_t stamp_ = 1;  // starts above the all-zero initial stamps
};

}  // namespace jem::core
