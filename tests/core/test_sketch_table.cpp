#include "core/sketch_table.hpp"

#include <gtest/gtest.h>

#include <algorithm>

namespace jem::core {
namespace {

TEST(SketchTable, RejectsNonPositiveTrials) {
  EXPECT_THROW(SketchTable(0), std::invalid_argument);
}

TEST(SketchTable, StartsEmpty) {
  const SketchTable table(5);
  EXPECT_EQ(table.trials(), 5);
  EXPECT_EQ(table.size(), 0u);
  EXPECT_EQ(table.key_count(), 0u);
  EXPECT_TRUE(table.lookup(0, 123).empty());
}

TEST(SketchTable, InsertAndLookupSingleEntry) {
  SketchTable table(3);
  table.insert(1, 0xdeadu, 7);
  const auto subjects = table.lookup(1, 0xdeadu);
  ASSERT_EQ(subjects.size(), 1u);
  EXPECT_EQ(subjects[0], 7u);
  EXPECT_TRUE(table.lookup(0, 0xdeadu).empty());  // other trials unaffected
  EXPECT_TRUE(table.lookup(2, 0xdeadu).empty());
}

TEST(SketchTable, CollapsesDuplicateTriples) {
  SketchTable table(2);
  table.insert(0, 42, 1);
  table.insert(0, 42, 1);
  table.insert(0, 42, 1);
  EXPECT_EQ(table.size(), 1u);
  EXPECT_EQ(table.lookup(0, 42).size(), 1u);
}

TEST(SketchTable, CollapsesOutOfOrderDuplicates) {
  SketchTable table(1);
  table.insert(0, 42, 1);
  table.insert(0, 42, 5);
  table.insert(0, 42, 1);  // out-of-order duplicate
  EXPECT_EQ(table.size(), 2u);
}

TEST(SketchTable, KeepsDistinctSubjectsPerKey) {
  SketchTable table(1);
  table.insert(0, 42, 1);
  table.insert(0, 42, 2);
  table.insert(0, 42, 3);
  const auto subjects = table.lookup(0, 42);
  ASSERT_EQ(subjects.size(), 3u);
  EXPECT_EQ(subjects[0], 1u);
  EXPECT_EQ(subjects[2], 3u);
}

TEST(SketchTable, InsertSketchInsertsAllTrials) {
  Sketch sketch;
  sketch.per_trial = {{10, 20}, {30}};
  SketchTable table(2);
  table.insert(sketch, 9);
  EXPECT_EQ(table.size(), 3u);
  EXPECT_EQ(table.lookup(0, 10).size(), 1u);
  EXPECT_EQ(table.lookup(0, 20).size(), 1u);
  EXPECT_EQ(table.lookup(1, 30).size(), 1u);
}

TEST(SketchTable, InsertSketchRejectsTrialMismatch) {
  Sketch sketch;
  sketch.per_trial = {{1}};
  SketchTable table(2);
  EXPECT_THROW(table.insert(sketch, 0), std::invalid_argument);
}

TEST(SketchTable, EntriesRoundTrip) {
  SketchTable table(3);
  table.insert(0, 100, 1);
  table.insert(0, 100, 2);
  table.insert(1, 200, 3);
  table.insert(2, 300, 1);

  const auto entries = table.to_entries();
  EXPECT_EQ(entries.size(), 4u);

  const SketchTable rebuilt = SketchTable::from_entries(3, entries);
  EXPECT_EQ(rebuilt.size(), table.size());
  EXPECT_EQ(rebuilt.lookup(0, 100).size(), 2u);
  EXPECT_EQ(rebuilt.lookup(1, 200).size(), 1u);
  EXPECT_EQ(rebuilt.lookup(2, 300).size(), 1u);
}

TEST(SketchTable, FromEntriesRejectsBadTrial) {
  const std::vector<SketchEntry> entries{{1, 5, 0}};
  EXPECT_THROW((void)SketchTable::from_entries(3, entries),
               std::invalid_argument);
}

TEST(SketchTable, FromEntriesMergesMultipleRanksDeduplicated) {
  // Two "ranks" contributing overlapping entries (a subject split across
  // boundary should not duplicate).
  std::vector<SketchEntry> rank0{{7, 0, 1}, {8, 0, 1}};
  std::vector<SketchEntry> rank1{{7, 0, 2}, {7, 0, 1}};
  std::vector<SketchEntry> all;
  all.insert(all.end(), rank0.begin(), rank0.end());
  all.insert(all.end(), rank1.begin(), rank1.end());
  const SketchTable merged = SketchTable::from_entries(1, all);
  EXPECT_EQ(merged.lookup(0, 7).size(), 2u);
  EXPECT_EQ(merged.lookup(0, 8).size(), 1u);
}

TEST(SketchTable, KeyCountCountsDistinctKeys) {
  SketchTable table(2);
  table.insert(0, 1, 0);
  table.insert(0, 1, 1);  // same key
  table.insert(0, 2, 0);
  table.insert(1, 1, 0);  // same kmer, other trial -> distinct key
  EXPECT_EQ(table.key_count(), 3u);
}

TEST(SketchTableFrozen, FreezeIsIdempotentAndPreservesLookups) {
  SketchTable table(2);
  table.insert(0, 10, 1);
  table.insert(0, 10, 2);
  table.insert(1, 20, 3);
  table.freeze();
  EXPECT_TRUE(table.frozen());
  table.freeze();  // idempotent
  EXPECT_EQ(table.lookup(0, 10).size(), 2u);
  EXPECT_EQ(table.lookup(1, 20).size(), 1u);
  EXPECT_TRUE(table.lookup(0, 99).empty());
  EXPECT_EQ(table.size(), 3u);
  EXPECT_EQ(table.key_count(), 2u);
  EXPECT_EQ(table.trials(), 2);
}

TEST(SketchTableFrozen, InsertThrowsAfterFreeze) {
  SketchTable table(1);
  table.freeze();
  EXPECT_THROW(table.insert(0, 1, 0), std::logic_error);
}

TEST(SketchTableFrozen, FromEntriesProducesFrozenTable) {
  const std::vector<SketchEntry> entries{{5, 0, 1}, {5, 0, 2}, {7, 0, 0}};
  const SketchTable table = SketchTable::from_entries(1, entries);
  EXPECT_TRUE(table.frozen());
  EXPECT_EQ(table.lookup(0, 5).size(), 2u);
  EXPECT_EQ(table.lookup(0, 7).size(), 1u);
}

TEST(SketchTableFrozen, FromEntriesCollapsesDuplicateTriples) {
  const std::vector<SketchEntry> entries{{5, 0, 1}, {5, 0, 1}, {5, 0, 1}};
  const SketchTable table = SketchTable::from_entries(1, entries);
  EXPECT_EQ(table.size(), 1u);
  EXPECT_EQ(table.lookup(0, 5).size(), 1u);
}

TEST(SketchTableFrozen, FrozenAndHashFormsAgreeOnRandomData) {
  // Property: lookups through the hash form and the frozen form of the
  // same contents must be identical sets.
  std::uint64_t state = 7;
  const auto next = [&state] {
    state = state * 6364136223846793005ULL + 1442695040888963407ULL;
    return state >> 16;
  };
  SketchTable hash_form(4);
  std::vector<SketchEntry> entries;
  for (int i = 0; i < 2000; ++i) {
    const SketchEntry entry{next() % 97, static_cast<std::uint32_t>(next() % 4),
                            static_cast<io::SeqId>(next() % 23)};
    hash_form.insert(static_cast<int>(entry.trial), entry.kmer, entry.subject);
    entries.push_back(entry);
  }
  const SketchTable frozen_form = SketchTable::from_entries(4, entries);
  for (std::uint64_t kmer = 0; kmer < 97; ++kmer) {
    for (int t = 0; t < 4; ++t) {
      auto a = hash_form.lookup(t, kmer);
      auto b = frozen_form.lookup(t, kmer);
      std::vector<io::SeqId> va(a.begin(), a.end());
      std::vector<io::SeqId> vb(b.begin(), b.end());
      std::sort(va.begin(), va.end());
      std::sort(vb.begin(), vb.end());
      EXPECT_EQ(va, vb) << "kmer " << kmer << " trial " << t;
    }
  }
}

TEST(SketchTableFrozen, ToEntriesRoundTripsThroughFrozenForm) {
  SketchTable table(2);
  table.insert(0, 100, 1);
  table.insert(1, 200, 2);
  table.freeze();
  const auto entries = table.to_entries();
  EXPECT_EQ(entries.size(), 2u);
  const SketchTable rebuilt = SketchTable::from_entries(2, entries);
  EXPECT_EQ(rebuilt.lookup(0, 100).size(), 1u);
  EXPECT_EQ(rebuilt.lookup(1, 200).size(), 1u);
}

TEST(SketchEntry, WireSizeIsStable) {
  // The allgatherv volume accounting assumes 16-byte entries.
  EXPECT_EQ(sizeof(SketchEntry), 16u);
}

}  // namespace
}  // namespace jem::core
