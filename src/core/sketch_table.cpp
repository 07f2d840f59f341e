#include "core/sketch_table.hpp"

#include <algorithm>
#include <optional>
#include <tuple>

#include "util/thread_pool.hpp"

namespace jem::core {

SketchTable::SketchTable(int trials) {
  *this = from_entries(trials, {});
}

std::vector<SketchEntry> SketchTable::to_entries() const {
  std::vector<SketchEntry> entries;
  entries.reserve(size());
  for (const FlatSketchIndex::Slot& slot : flat_.slots()) {
    for (std::uint32_t j = slot.offset; j < slot.offset + slot.count; ++j) {
      entries.push_back({slot.kmer, flat_.trial_ids()[j], flat_.subjects()[j]});
    }
  }
  std::sort(entries.begin(), entries.end(),
            [](const SketchEntry& a, const SketchEntry& b) {
              return std::tie(a.trial, a.kmer, a.subject) <
                     std::tie(b.trial, b.kmer, b.subject);
            });
  return entries;
}

SketchTable SketchTable::from_entries(int trials,
                                      std::span<const SketchEntry> entries,
                                      std::size_t threads) {
  std::optional<util::ThreadPool> pool;
  if (threads > 1) pool.emplace(threads);
  return SketchTable(
      FlatSketchIndex::build(trials, entries, pool ? &*pool : nullptr));
}

}  // namespace jem::core
