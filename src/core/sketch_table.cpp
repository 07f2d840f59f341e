#include "core/sketch_table.hpp"

#include <algorithm>
#include <limits>
#include <stdexcept>

namespace jem::core {

namespace {

/// CSR offsets are std::uint32_t per trial: refuse to freeze a trial whose
/// postings would overflow them instead of silently truncating.
void check_postings_fit(std::size_t postings) {
  if (postings > std::numeric_limits<std::uint32_t>::max()) {
    throw std::length_error(
        "SketchTable: trial postings exceed the uint32 CSR offset range");
  }
}

}  // namespace

SketchTable::SketchTable(int trials) : trials_(trials) {
  if (trials < 1) {
    throw std::invalid_argument("SketchTable: trials must be >= 1");
  }
  bins_.resize(static_cast<std::size_t>(trials));
}

void SketchTable::insert(const Sketch& sketch, io::SeqId subject) {
  if (sketch.trials() != trials()) {
    throw std::invalid_argument("SketchTable::insert: trial count mismatch");
  }
  for (int t = 0; t < trials(); ++t) {
    for (KmerCode kmer : sketch.per_trial[static_cast<std::size_t>(t)]) {
      insert(t, kmer, subject);
    }
  }
}

void SketchTable::insert(int trial, KmerCode kmer, io::SeqId subject) {
  if (frozen_) {
    throw std::logic_error("SketchTable::insert: table is frozen");
  }
  auto& postings = bins_[static_cast<std::size_t>(trial)][kmer];
  // Postings are kept sorted; every driver inserts subjects in
  // non-decreasing id order, so the common case is an O(1) append, and
  // arbitrary-order inserts still preserve set semantics via binary search.
  if (postings.empty() || postings.back() < subject) {
    postings.push_back(subject);
  } else {
    const auto it =
        std::lower_bound(postings.begin(), postings.end(), subject);
    if (it != postings.end() && *it == subject) return;
    postings.insert(it, subject);
  }
  ++entries_;
}

void SketchTable::freeze() {
  if (frozen_) return;
  frozen_trials_.resize(bins_.size());
  for (std::size_t t = 0; t < bins_.size(); ++t) {
    Bin& bin = bins_[t];
    FrozenTrial& frozen = frozen_trials_[t];

    std::vector<std::pair<KmerCode, io::SeqId>> flat;
    flat.reserve(entries_);
    for (auto& [kmer, postings] : bin) {
      for (io::SeqId subject : postings) flat.emplace_back(kmer, subject);
    }
    check_postings_fit(flat.size());
    std::sort(flat.begin(), flat.end());

    frozen.keys.reserve(bin.size());
    frozen.offsets.reserve(bin.size() + 1);
    frozen.subjects.reserve(flat.size());
    for (const auto& [kmer, subject] : flat) {
      if (frozen.keys.empty() || frozen.keys.back() != kmer) {
        frozen.keys.push_back(kmer);
        frozen.offsets.push_back(
            static_cast<std::uint32_t>(frozen.subjects.size()));
      }
      frozen.subjects.push_back(subject);
    }
    frozen.offsets.push_back(
        static_cast<std::uint32_t>(frozen.subjects.size()));
    bin.clear();
  }
  bins_.clear();
  bins_.shrink_to_fit();
  build_flat_index();
  frozen_ = true;
}

void SketchTable::build_flat_index() {
  std::vector<FlatSketchIndex::TrialView> views;
  views.reserve(frozen_trials_.size());
  for (const FrozenTrial& frozen : frozen_trials_) {
    views.push_back({frozen.keys, frozen.offsets, frozen.subjects});
  }
  flat_ = FlatSketchIndex::build(views);
}

const FlatSketchIndex& SketchTable::flat() const {
  if (!frozen_) {
    throw std::logic_error("SketchTable::flat: table is not frozen");
  }
  return flat_;
}

std::span<const io::SeqId> SketchTable::lookup(int trial,
                                               KmerCode kmer) const {
  if (frozen_) {
    const FrozenTrial& frozen =
        frozen_trials_[static_cast<std::size_t>(trial)];
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
  const Bin& bin = bins_[static_cast<std::size_t>(trial)];
  const auto it = bin.find(kmer);
  if (it == bin.end()) return {};
  return it->second;
}

std::size_t SketchTable::key_count() const noexcept {
  std::size_t keys = 0;
  if (frozen_) {
    for (const FrozenTrial& frozen : frozen_trials_) {
      keys += frozen.keys.size();
    }
  } else {
    for (const Bin& bin : bins_) keys += bin.size();
  }
  return keys;
}

std::vector<SketchEntry> SketchTable::to_entries() const {
  std::vector<SketchEntry> entries;
  entries.reserve(entries_);
  for (int t = 0; t < trials(); ++t) {
    if (frozen_) {
      const FrozenTrial& frozen =
          frozen_trials_[static_cast<std::size_t>(t)];
      for (std::size_t i = 0; i < frozen.keys.size(); ++i) {
        for (std::uint32_t j = frozen.offsets[i]; j < frozen.offsets[i + 1];
             ++j) {
          entries.push_back({frozen.keys[i], static_cast<std::uint32_t>(t),
                             frozen.subjects[j]});
        }
      }
    } else {
      for (const auto& [kmer, postings] :
           bins_[static_cast<std::size_t>(t)]) {
        for (io::SeqId subject : postings) {
          entries.push_back({kmer, static_cast<std::uint32_t>(t), subject});
        }
      }
    }
  }
  return entries;
}

SketchTable SketchTable::from_entries(int trials,
                                      std::span<const SketchEntry> entries) {
  SketchTable table(trials);

  // Bucket entries per trial, then sort each trial's postings by
  // (kmer, subject) and emit the CSR arrays directly — no hash maps, one
  // sort per trial. Duplicate triples (a subject whose sketches were
  // computed by two ranks can never occur with contiguous partitions, but
  // the wire format does not forbid it) collapse during the linear pass.
  std::vector<std::vector<std::pair<KmerCode, io::SeqId>>> per_trial(
      static_cast<std::size_t>(trials));
  for (const SketchEntry& entry : entries) {
    if (entry.trial >= static_cast<std::uint32_t>(trials)) {
      throw std::invalid_argument("SketchTable::from_entries: bad trial id");
    }
    per_trial[entry.trial].emplace_back(entry.kmer, entry.subject);
  }

  table.frozen_trials_.resize(static_cast<std::size_t>(trials));
  for (int t = 0; t < trials; ++t) {
    auto& flat = per_trial[static_cast<std::size_t>(t)];
    std::sort(flat.begin(), flat.end());
    flat.erase(std::unique(flat.begin(), flat.end()), flat.end());
    check_postings_fit(flat.size());

    FrozenTrial& frozen = table.frozen_trials_[static_cast<std::size_t>(t)];
    frozen.subjects.reserve(flat.size());
    for (const auto& [kmer, subject] : flat) {
      if (frozen.keys.empty() || frozen.keys.back() != kmer) {
        frozen.keys.push_back(kmer);
        frozen.offsets.push_back(
            static_cast<std::uint32_t>(frozen.subjects.size()));
      }
      frozen.subjects.push_back(subject);
    }
    frozen.offsets.push_back(
        static_cast<std::uint32_t>(frozen.subjects.size()));
    table.entries_ += flat.size();
  }
  table.bins_.clear();
  table.build_flat_index();
  table.frozen_ = true;
  return table;
}

const SketchTable::FrozenTrial& SketchTable::frozen_trial(int trial) const {
  if (!frozen_) {
    throw std::logic_error("SketchTable::frozen_trial: table is not frozen");
  }
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

  SketchTable table(trials);
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
  table.bins_.clear();
  table.frozen_ = true;
  return table;
}

}  // namespace jem::core
