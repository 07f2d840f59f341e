#include "core/sketch_table.hpp"

#include <algorithm>
#include <limits>
#include <optional>
#include <stdexcept>
#include <string>
#include <utility>

#include "util/thread_pool.hpp"

namespace jem::core {

namespace {

/// CSR offsets are std::uint32_t per trial: refuse to build a trial whose
/// postings would overflow them instead of silently truncating.
void check_postings_fit(std::size_t postings) {
  if (postings > std::numeric_limits<std::uint32_t>::max()) {
    throw std::length_error(
        "SketchTable: trial postings exceed the uint32 CSR offset range");
  }
}

using Posting = std::pair<KmerCode, io::SeqId>;

/// Sorts one trial's (kmer, subject) pairs, drops duplicate triples and
/// emits the CSR arrays.
void build_trial(std::span<Posting> postings,
                 SketchTable::FrozenTrial& frozen) {
  std::sort(postings.begin(), postings.end());
  const auto unique_end = std::unique(postings.begin(), postings.end());
  postings = postings.first(
      static_cast<std::size_t>(unique_end - postings.begin()));
  check_postings_fit(postings.size());

  frozen.subjects.reserve(postings.size());
  for (const auto& [kmer, subject] : postings) {
    if (frozen.keys.empty() || frozen.keys.back() != kmer) {
      frozen.keys.push_back(kmer);
      frozen.offsets.push_back(
          static_cast<std::uint32_t>(frozen.subjects.size()));
    }
    frozen.subjects.push_back(subject);
  }
  frozen.offsets.push_back(
      static_cast<std::uint32_t>(frozen.subjects.size()));
}

}  // namespace

SketchTable::SketchTable(int trials) {
  *this = from_entries(trials, {});
}

std::span<const io::SeqId> SketchTable::lookup(int trial,
                                               KmerCode kmer) const {
  const FrozenTrial& frozen = frozen_trials_[static_cast<std::size_t>(trial)];
  const auto it =
      std::lower_bound(frozen.keys.begin(), frozen.keys.end(), kmer);
  if (it == frozen.keys.end() || *it != kmer) return {};
  const auto index =
      static_cast<std::size_t>(std::distance(frozen.keys.begin(), it));
  const std::uint32_t begin = frozen.offsets[index];
  const std::uint32_t end = frozen.offsets[index + 1];
  return std::span<const io::SeqId>(frozen.subjects)
      .subspan(begin, end - begin);
}

std::size_t SketchTable::key_count() const noexcept {
  std::size_t keys = 0;
  for (const FrozenTrial& frozen : frozen_trials_) keys += frozen.keys.size();
  return keys;
}

std::vector<SketchEntry> SketchTable::to_entries() const {
  std::vector<SketchEntry> entries;
  entries.reserve(entries_);
  for (std::size_t t = 0; t < frozen_trials_.size(); ++t) {
    const FrozenTrial& frozen = frozen_trials_[t];
    for (std::size_t i = 0; i < frozen.keys.size(); ++i) {
      for (std::uint32_t j = frozen.offsets[i]; j < frozen.offsets[i + 1];
           ++j) {
        entries.push_back({frozen.keys[i], static_cast<std::uint32_t>(t),
                           frozen.subjects[j]});
      }
    }
  }
  return entries;
}

SketchTable SketchTable::from_entries(int trials,
                                      std::span<const SketchEntry> entries,
                                      std::size_t threads) {
  if (trials < 1) {
    throw std::invalid_argument("SketchTable: trials must be >= 1");
  }
  const auto num_trials = static_cast<std::size_t>(trials);

  // Bucket the entries by trial into one flat (kmer, subject) array — a
  // counting pass, then a scatter — so each trial owns a contiguous slice.
  std::vector<std::size_t> begin(num_trials + 1, 0);
  for (const SketchEntry& entry : entries) {
    if (entry.trial >= num_trials) {
      throw std::invalid_argument("SketchTable::from_entries: bad trial id");
    }
    ++begin[entry.trial + 1];
  }
  for (std::size_t t = 0; t < num_trials; ++t) begin[t + 1] += begin[t];
  std::vector<Posting> postings(entries.size());
  {
    std::vector<std::size_t> cursor(begin.begin(), begin.end() - 1);
    for (const SketchEntry& entry : entries) {
      postings[cursor[entry.trial]++] = {entry.kmer, entry.subject};
    }
  }

  // Each trial's slice sorts and emits its CSR arrays independently, and
  // the flat index fills each trial's slot region independently, so both
  // run one task per trial. Sorting by (kmer, subject) makes the arrays
  // independent of the entry order and of the thread count.
  std::optional<util::ThreadPool> pool;
  if (threads > 1) pool.emplace(std::min(threads, num_trials));
  util::ThreadPool* const workers = pool ? &*pool : nullptr;

  SketchTable table;
  table.trials_ = trials;
  table.frozen_trials_.resize(num_trials);
  util::parallel_for_each(workers, num_trials, [&](std::size_t t) {
    build_trial(std::span<Posting>(postings).subspan(
                    begin[t], begin[t + 1] - begin[t]),
                table.frozen_trials_[t]);
  });
  std::vector<FlatSketchIndex::TrialView> views;
  views.reserve(num_trials);
  for (const FrozenTrial& frozen : table.frozen_trials_) {
    views.push_back({frozen.keys, frozen.offsets, frozen.subjects});
    table.entries_ += frozen.subjects.size();
  }
  table.flat_ = FlatSketchIndex::build(views, workers);
  return table;
}

const SketchTable::FrozenTrial& SketchTable::frozen_trial(int trial) const {
  return frozen_trials_.at(static_cast<std::size_t>(trial));
}

SketchTable SketchTable::from_frozen(int trials,
                                     std::vector<FrozenTrial> frozen_trials,
                                     FlatSketchIndex flat) {
  const auto fail = [](const char* what) {
    throw std::invalid_argument(std::string("SketchTable::from_frozen: ") +
                                what);
  };
  if (trials < 1) fail("trials must be >= 1");
  if (frozen_trials.size() != static_cast<std::size_t>(trials)) {
    fail("trial count disagrees with the CSR arrays");
  }
  if (flat.trials() != trials) fail("flat index trial count mismatch");

  SketchTable table;
  table.trials_ = trials;
  std::size_t keys = 0;
  for (const FrozenTrial& frozen : frozen_trials) {
    if (frozen.offsets.size() != frozen.keys.size() + 1) {
      fail("offset array size disagrees with key count");
    }
    if (frozen.offsets.front() != 0 ||
        frozen.offsets.back() != frozen.subjects.size()) {
      fail("offsets do not cover the postings array");
    }
    for (std::size_t i = 0; i + 1 < frozen.offsets.size(); ++i) {
      if (frozen.offsets[i] > frozen.offsets[i + 1]) {
        fail("offsets are not non-decreasing");
      }
    }
    for (std::size_t i = 1; i < frozen.keys.size(); ++i) {
      if (frozen.keys[i - 1] >= frozen.keys[i]) {
        fail("keys are not strictly increasing");
      }
    }
    keys += frozen.keys.size();
    table.entries_ += frozen.subjects.size();
  }
  if (flat.key_count() != keys) fail("flat index key count mismatch");

  table.frozen_trials_ = std::move(frozen_trials);
  table.flat_ = std::move(flat);
  return table;
}

}  // namespace jem::core
