#include "core/flat_index.hpp"

#include <algorithm>
#include <bit>
#include <limits>
#include <stdexcept>
#include <string>
#include <tuple>

#include "util/thread_pool.hpp"

namespace jem::core {

namespace {

/// Hash shards of the build: the top kShardBits bits of a key's hash, so
/// shard s holds the keys of the s-th consecutive range of homes.
constexpr unsigned kShardBits = 6;
constexpr std::size_t kShards = std::size_t{1} << kShardBits;

std::size_t shard_of(KmerCode kmer) noexcept {
  return static_cast<std::size_t>(FlatSketchIndex::hash(kmer) >>
                                  (64 - kShardBits));
}

/// One key of a shard: its hash and its run of the shard's sorted entries.
struct Key {
  std::uint64_t hash;
  std::uint32_t first;
  std::uint32_t end;
};

}  // namespace

FlatSketchIndex FlatSketchIndex::build(int trials,
                                       std::span<const SketchEntry> entries,
                                       util::ThreadPool* pool) {
  if (trials < 1) {
    throw std::invalid_argument("FlatSketchIndex: trials must be >= 1");
  }
  if (entries.size() > std::numeric_limits<std::uint32_t>::max()) {
    throw std::length_error(
        "FlatSketchIndex: postings exceed uint32 offset range");
  }

  // Bucket the entries by hash shard into one array — a counting pass,
  // then a scatter — so each shard owns a contiguous slice.
  std::vector<std::size_t> begin(kShards + 1, 0);
  for (const SketchEntry& entry : entries) {
    if (entry.trial >= static_cast<std::uint32_t>(trials)) {
      throw std::invalid_argument("FlatSketchIndex::build: bad trial id");
    }
    ++begin[shard_of(entry.kmer) + 1];
  }
  for (std::size_t s = 0; s < kShards; ++s) begin[s + 1] += begin[s];
  std::vector<SketchEntry> sorted(entries.size());
  {
    std::vector<std::size_t> cursor(begin.begin(), begin.end() - 1);
    for (const SketchEntry& entry : entries) {
      sorted[cursor[shard_of(entry.kmer)]++] = entry;
    }
  }

  // Per shard: sort by (kmer, trial, subject), drop duplicate entries, and
  // list the keys (one run of equal k-mers each) in ascending hash order.
  std::vector<std::span<const SketchEntry>> unique(kShards);
  std::vector<std::vector<Key>> keys(kShards);
  std::vector<std::size_t> trial_keys(kShards, 0);
  util::parallel_for_each(pool, kShards, [&](std::size_t s) {
    const auto slice = std::span<SketchEntry>(sorted).subspan(
        begin[s], begin[s + 1] - begin[s]);
    std::sort(slice.begin(), slice.end(),
              [](const SketchEntry& a, const SketchEntry& b) {
                return std::tie(a.kmer, a.trial, a.subject) <
                       std::tie(b.kmer, b.trial, b.subject);
              });
    const auto unique_end = std::unique(slice.begin(), slice.end());
    unique[s] =
        slice.first(static_cast<std::size_t>(unique_end - slice.begin()));
    for (std::size_t first = 0; first < unique[s].size();) {
      const KmerCode kmer = unique[s][first].kmer;
      std::size_t end = first;
      for (; end < unique[s].size() && unique[s][end].kmer == kmer; ++end) {
        trial_keys[s] +=
            end == first || unique[s][end].trial != unique[s][end - 1].trial;
      }
      keys[s].push_back({hash(kmer), static_cast<std::uint32_t>(first),
                         static_cast<std::uint32_t>(end)});
      first = end;
    }
    std::sort(keys[s].begin(), keys[s].end(),
              [](const Key& a, const Key& b) { return a.hash < b.hash; });
  });

  FlatSketchIndex index;
  index.trials_ = trials;
  std::size_t postings = 0;
  for (std::size_t s = 0; s < kShards; ++s) {
    index.kmers_ += keys[s].size();
    index.keys_ += trial_keys[s];
    postings += unique[s].size();
  }
  const std::size_t capacity =
      std::bit_ceil(std::max<std::size_t>(2, 2 * index.kmers_));
  index.shift_ = 64 - static_cast<unsigned>(std::countr_zero(capacity));

  // Place the shard boundaries: every key goes in the first free slot at or
  // after its home, in ascending hash order, so shard s starts where shard
  // s - 1's keys end. Its postings start after shard s - 1's.
  std::vector<std::size_t> slot_begin(kShards + 1, 0);
  std::vector<std::size_t> postings_begin(kShards, 0);
  std::size_t next_free = 0;
  std::size_t next_posting = 0;
  for (std::size_t s = 0; s < kShards; ++s) {
    slot_begin[s] = next_free;
    postings_begin[s] = next_posting;
    for (const Key& key : keys[s]) {
      next_free = std::max(index.home(key.hash), next_free) + 1;
    }
    next_posting += unique[s].size();
  }
  slot_begin[kShards] = std::max(capacity, next_free + 1);
  index.slots_.resize(slot_begin[kShards]);
  index.trial_ids_.resize(postings);
  index.subjects_.resize(postings);

  // Each shard writes its slot range (keys and the empty slots between
  // them) and its postings slice, in slot order.
  util::parallel_for_each(pool, kShards, [&](std::size_t s) {
    Slot* const slots = index.slots_.data();
    std::size_t next = slot_begin[s];
    auto offset = static_cast<std::uint32_t>(postings_begin[s]);
    for (const Key& key : keys[s]) {
      const std::size_t at = std::max(index.home(key.hash), next);
      std::fill(slots + next, slots + at, Slot{});
      slots[at] = {unique[s][key.first].kmer, offset, key.end - key.first};
      for (std::uint32_t j = key.first; j < key.end; ++j, ++offset) {
        index.trial_ids_[offset] = unique[s][j].trial;
        index.subjects_[offset] = unique[s][j].subject;
      }
      next = at + 1;
    }
    std::fill(slots + next, slots + slot_begin[s + 1], Slot{});
  });
  return index;
}

FlatSketchIndex FlatSketchIndex::from_parts(
    int trials, std::size_t capacity, Array<Slot> slots,
    Array<std::uint32_t> trial_ids, Array<io::SeqId> subjects,
    std::size_t kmers, std::size_t num_subjects) {
  const auto fail = [](const char* what) {
    throw std::invalid_argument(std::string("FlatSketchIndex::from_parts: ") +
                                what);
  };
  if (trials < 1) fail("trials must be >= 1");
  if (capacity < 2 || !std::has_single_bit(capacity)) {
    fail("capacity is not a power of two >= 2");
  }
  // Homes fall below the capacity, and a probe ends on an empty slot: the
  // last one ends every probe that would otherwise run off the array.
  if (slots.size() < capacity) fail("slot array is shorter than capacity");
  if (slots.back().count != 0) fail("last slot is not empty");
  if (trial_ids.size() != subjects.size()) {
    fail("trial and subject postings differ in length");
  }

  std::size_t occupied = 0;
  std::size_t keys = 0;
  for (const Slot& slot : slots) {
    if (slot.count == 0) continue;
    ++occupied;
    const std::size_t end = static_cast<std::size_t>(slot.offset) + slot.count;
    if (end > subjects.size()) {
      fail("slot postings span exceeds the postings arrays");
    }
    for (std::size_t j = slot.offset; j < end; ++j) {
      if (trial_ids[j] >= static_cast<std::uint32_t>(trials)) {
        fail("posting trial id out of range");
      }
      if (subjects[j] >= num_subjects) fail("posting subject id out of range");
      if (j == slot.offset) {
        ++keys;
        continue;
      }
      if (std::tie(trial_ids[j], subjects[j]) <=
          std::tie(trial_ids[j - 1], subjects[j - 1])) {
        fail("postings run is not strictly ascending by (trial, subject)");
      }
      keys += trial_ids[j] != trial_ids[j - 1] ? 1 : 0;
    }
  }
  if (occupied != kmers) fail("occupied slot count disagrees with key count");

  FlatSketchIndex index;
  index.slots_ = std::move(slots);
  index.trial_ids_ = std::move(trial_ids);
  index.subjects_ = std::move(subjects);
  index.trials_ = trials;
  index.shift_ = 64 - static_cast<unsigned>(std::countr_zero(capacity));
  index.kmers_ = kmers;
  index.keys_ = keys;
  return index;
}

std::span<const io::SeqId> FlatSketchIndex::trial_subjects(
    Run run, int trial) const noexcept {
  const std::uint32_t* const ids = trial_ids_.data();
  const auto [first, last] = std::equal_range(
      ids + run.begin, ids + run.end, static_cast<std::uint32_t>(trial));
  return {subjects_.data() + (first - ids),
          static_cast<std::size_t>(last - first)};
}

std::uint64_t FlatSketchIndex::lookup_many(
    int trial, std::span<const KmerCode> kmers,
    std::span<std::span<const io::SeqId>> out) const {
  constexpr std::size_t kPrefetchDistance = 8;
  std::uint64_t probed = 0;
  for (std::size_t j = 0; j < kmers.size(); ++j) {
    if (j + kPrefetchDistance < kmers.size()) {
      prefetch(home(hash(kmers[j + kPrefetchDistance])));
    }
    out[j] = trial_subjects(probe(home(hash(kmers[j])), kmers[j], probed),
                            trial);
  }
  return probed;
}

}  // namespace jem::core
