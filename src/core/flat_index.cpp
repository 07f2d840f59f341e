#include "core/flat_index.hpp"

#include <algorithm>
#include <limits>
#include <stdexcept>

#include "core/sketch.hpp"
#include "util/thread_pool.hpp"

namespace jem::core {

namespace {

/// Smallest power of two >= 2n (load factor <= 0.5), and at least one slot
/// so the probe loop of an empty trial terminates on the empty marker.
std::size_t region_capacity(std::size_t n) noexcept {
  std::size_t cap = 1;
  while (cap < 2 * n) cap *= 2;
  return cap;
}

}  // namespace

FlatSketchIndex FlatSketchIndex::build(std::span<const SortedTrial> trials,
                                       util::ThreadPool* pool) {
  FlatSketchIndex index;
  const std::size_t n = trials.size();
  index.base_.resize(n);
  index.mask_.resize(n);

  // Lay out every trial's slot region and postings slice up front.
  std::vector<std::size_t> postings_base(n);
  std::size_t total_slots = 0;
  std::size_t total_postings = 0;
  for (std::size_t t = 0; t < n; ++t) {
    const std::size_t capacity = region_capacity(trials[t].keys);
    index.base_[t] = total_slots;
    index.mask_[t] = capacity - 1;
    postings_base[t] = total_postings;
    total_slots += capacity;
    total_postings += trials[t].postings.size();
    index.keys_ += trials[t].keys;
  }
  if (total_postings > std::numeric_limits<std::uint32_t>::max()) {
    throw std::length_error(
        "FlatSketchIndex: postings exceed uint32 offset range");
  }
  index.slots_.resize(total_slots);
  index.subjects_.resize(total_postings);

  // Each run of equal k-mers is one key: its subjects are copied to the
  // pool in order, and its slot goes in in ascending k-mer order.
  util::parallel_for_each(pool, n, [&](std::size_t t) {
    const std::span<const Posting> postings = trials[t].postings;
    io::SeqId* const pool_slice = index.subjects_.data() + postings_base[t];
    Slot* const region = index.slots_.data() + index.base_[t];
    const std::size_t mask = index.mask_[t];
    for (std::size_t first = 0; first < postings.size();) {
      const KmerCode kmer = postings[first].first;
      std::size_t end = first;
      for (; end < postings.size() && postings[end].first == kmer; ++end) {
        pool_slice[end] = postings[end].second;
      }
      std::size_t i = hash(kmer) & mask;
      while (region[i].count != 0) i = (i + 1) & mask;
      region[i] =
          Slot{kmer, static_cast<std::uint32_t>(postings_base[t] + first),
               static_cast<std::uint32_t>(end - first)};
      first = end;
    }
  });
  return index;
}

FlatSketchIndex FlatSketchIndex::from_parts(std::vector<Slot> slots,
                                            std::vector<std::size_t> base,
                                            std::vector<std::size_t> mask,
                                            std::vector<io::SeqId> subjects,
                                            std::size_t keys) {
  const auto fail = [](const char* what) {
    throw std::invalid_argument(std::string("FlatSketchIndex::from_parts: ") +
                                what);
  };
  if (base.size() != mask.size()) fail("base/mask trial count mismatch");

  std::size_t expected_base = 0;
  std::size_t occupied = 0;
  for (std::size_t t = 0; t < base.size(); ++t) {
    const std::size_t capacity = mask[t] + 1;
    if (capacity == 0 || (capacity & mask[t]) != 0) {
      fail("region capacity is not a power of two");
    }
    if (base[t] != expected_base) fail("regions are not contiguous");
    expected_base += capacity;
    if (expected_base > slots.size()) fail("regions overrun the slot array");

    std::size_t region_occupied = 0;
    for (std::size_t i = base[t]; i < base[t] + capacity; ++i) {
      const Slot& slot = slots[i];
      if (slot.count == 0) continue;
      ++region_occupied;
      if (static_cast<std::size_t>(slot.offset) + slot.count >
          subjects.size()) {
        fail("slot postings span exceeds the subjects pool");
      }
    }
    // The probe loop terminates on an empty slot; a full region would spin
    // forever on a missing key.
    if (region_occupied >= capacity) fail("region has no empty slot");
    occupied += region_occupied;
  }
  if (expected_base != slots.size()) fail("slot array has trailing slots");
  if (occupied != keys) fail("occupied slot count disagrees with key count");

  FlatSketchIndex index;
  index.slots_ = std::move(slots);
  index.base_ = std::move(base);
  index.mask_ = std::move(mask);
  index.subjects_ = std::move(subjects);
  index.keys_ = keys;
  return index;
}

void FlatSketchIndex::homes(const FlatSketch& sketch,
                            std::vector<std::size_t>& out) const {
  out.resize(sketch.kmers.size());
  for (int t = 0; t < sketch.trials(); ++t) {
    const std::size_t trial = static_cast<std::size_t>(t);
    const Slot* const region = slots_.data() + base_[trial];
    for (std::size_t j = sketch.offsets[trial]; j < sketch.offsets[trial + 1];
         ++j) {
      out[j] = home(t, sketch.kmers[j]);
      __builtin_prefetch(region + out[j], 0 /* read */, 1);
    }
  }
}

std::uint64_t FlatSketchIndex::lookup_many(
    int trial, std::span<const KmerCode> kmers,
    std::span<std::span<const io::SeqId>> out) const {
  constexpr std::size_t kPrefetchDistance = 8;
  const Slot* const region =
      slots_.data() + base_[static_cast<std::size_t>(trial)];
  std::uint64_t probed = 0;
  for (std::size_t j = 0; j < kmers.size(); ++j) {
    if (j + kPrefetchDistance < kmers.size()) {
      __builtin_prefetch(region + home(trial, kmers[j + kPrefetchDistance]),
                         0 /* read */, 1);
    }
    out[j] = probe(trial, home(trial, kmers[j]), kmers[j], probed);
  }
  return probed;
}

}  // namespace jem::core
