#include "core/sketch_table.hpp"

#include <algorithm>
#include <iterator>
#include <optional>
#include <stdexcept>
#include <utility>

#include "util/thread_pool.hpp"

namespace jem::core {

SketchTable::SketchTable(int trials) {
  *this = from_entries(trials, {});
}

std::vector<SketchEntry> SketchTable::to_entries() const {
  using Slot = FlatSketchIndex::Slot;
  std::vector<SketchEntry> entries;
  entries.reserve(size());
  std::vector<Slot> keys;
  for (int t = 0; t < trials(); ++t) {
    const auto trial = static_cast<std::size_t>(t);
    const std::span<const Slot> region = flat_.slots().subspan(
        flat_.bases()[trial], flat_.masks()[trial] + 1);
    keys.clear();
    std::copy_if(region.begin(), region.end(), std::back_inserter(keys),
                 [](const Slot& slot) { return slot.count != 0; });
    std::sort(keys.begin(), keys.end(), [](const Slot& a, const Slot& b) {
      return a.kmer < b.kmer;
    });
    for (const Slot& slot : keys) {
      for (const io::SeqId subject :
           flat_.subjects().subspan(slot.offset, slot.count)) {
        entries.push_back(
            {slot.kmer, static_cast<std::uint32_t>(t), subject});
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
  using Posting = FlatSketchIndex::Posting;

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

  // Each trial's slice sorts, drops duplicate triples and counts its keys
  // independently, and the flat index fills each trial's slot region
  // independently, so both run one task per trial. Sorting by (kmer,
  // subject) makes the index independent of the entry order and of the
  // thread count.
  std::optional<util::ThreadPool> pool;
  if (threads > 1) pool.emplace(std::min(threads, num_trials));
  util::ThreadPool* const workers = pool ? &*pool : nullptr;

  std::vector<FlatSketchIndex::SortedTrial> sorted(num_trials);
  util::parallel_for_each(workers, num_trials, [&](std::size_t t) {
    const auto slice = std::span<Posting>(postings).subspan(
        begin[t], begin[t + 1] - begin[t]);
    std::sort(slice.begin(), slice.end());
    const auto unique_end = std::unique(slice.begin(), slice.end());
    const std::span<const Posting> unique =
        slice.first(static_cast<std::size_t>(unique_end - slice.begin()));
    std::size_t keys = 0;
    for (std::size_t j = 0; j < unique.size(); ++j) {
      keys += j == 0 || unique[j].first != unique[j - 1].first;
    }
    sorted[t] = {unique, keys};
  });
  return SketchTable(FlatSketchIndex::build(sorted, workers));
}

}  // namespace jem::core
