#include "core/sketch_table.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <iterator>
#include <map>
#include <set>
#include <tuple>
#include <utility>
#include <vector>

#include "core/mapper.hpp"
#include "util/prng.hpp"

namespace jem::core {
namespace {

/// The reference S: an ordered map from (trial, kmer) to the subject set.
using Oracle = std::map<std::pair<int, KmerCode>, std::set<io::SeqId>>;

Oracle oracle_of(std::span<const SketchEntry> entries) {
  Oracle oracle;
  for (const SketchEntry& entry : entries) {
    oracle[{static_cast<int>(entry.trial), entry.kmer}].insert(entry.subject);
  }
  return oracle;
}

/// Asserts that `table` holds exactly the oracle's contents: every key
/// answers its subject set, and in every trial every k-mer of the oracle
/// that is absent there, and k-mers outside the oracle's range, miss.
void expect_matches_oracle(const SketchTable& table, const Oracle& oracle) {
  std::set<KmerCode> kmers{0, ~KmerCode{0}};
  std::size_t entries = 0;
  for (const auto& [key, subjects] : oracle) {
    kmers.insert(key.second);
    entries += subjects.size();
  }
  const KmerCode beyond = *std::prev(kmers.end(), 2) + 1;  // max key + 1
  kmers.insert({beyond, beyond + 1000});
  for (int trial = 0; trial < table.trials(); ++trial) {
    for (const KmerCode kmer : kmers) {
      const auto it = oracle.find({trial, kmer});
      const std::vector<io::SeqId> want =
          it == oracle.end()
              ? std::vector<io::SeqId>{}
              : std::vector<io::SeqId>(it->second.begin(), it->second.end());
      const auto flat = table.flat().lookup(trial, kmer);
      EXPECT_EQ(std::vector<io::SeqId>(flat.begin(), flat.end()), want)
          << "trial " << trial << " kmer " << kmer;
    }
  }
  EXPECT_EQ(table.size(), entries);
  EXPECT_EQ(table.key_count(), oracle.size());
  EXPECT_EQ(table.flat().key_count(), oracle.size());
}

/// The frozen index of `a` and `b` is equal part for part.
void expect_same_index(const SketchTable& a, const SketchTable& b) {
  EXPECT_TRUE(std::ranges::equal(a.flat().slots(), b.flat().slots()));
  EXPECT_EQ(a.flat().capacity(), b.flat().capacity());
  EXPECT_TRUE(
      std::ranges::equal(a.flat().trial_ids(), b.flat().trial_ids()));
  EXPECT_TRUE(std::ranges::equal(a.flat().subjects(), b.flat().subjects()));
}

/// `count` random entries over small key/subject pools (so postings and
/// duplicate triples occur), in random order.
std::vector<SketchEntry> random_entries(std::uint64_t seed, int trials,
                                        std::size_t count) {
  util::Xoshiro256ss rng(seed);
  std::vector<SketchEntry> entries(count);
  for (SketchEntry& entry : entries) {
    entry = {rng.bounded(97),
             static_cast<std::uint32_t>(
                 rng.bounded(static_cast<std::uint64_t>(trials))),
             static_cast<io::SeqId>(rng.bounded(23))};
  }
  return entries;
}

TEST(SketchTable, RejectsNonPositiveTrials) {
  EXPECT_THROW(SketchTable(0), std::invalid_argument);
  EXPECT_THROW((void)SketchTable::from_entries(0, {}), std::invalid_argument);
}

TEST(SketchTable, StartsEmpty) {
  const SketchTable table(5);
  EXPECT_EQ(table.trials(), 5);
  EXPECT_EQ(table.size(), 0u);
  EXPECT_EQ(table.key_count(), 0u);
  EXPECT_TRUE(table.flat().lookup(0, 123).empty());
  EXPECT_TRUE(table.flat().lookup(4, 123).empty());
}

TEST(SketchTable, InsertAndLookupSingleEntry) {
  const std::vector<SketchEntry> entries{{0xdeadu, 1, 7}};
  const SketchTable table = SketchTable::from_entries(3, entries);
  const auto subjects = table.flat().lookup(1, 0xdeadu);
  ASSERT_EQ(subjects.size(), 1u);
  EXPECT_EQ(subjects[0], 7u);
  // Other trials are unaffected.
  EXPECT_TRUE(table.flat().lookup(0, 0xdeadu).empty());
  EXPECT_TRUE(table.flat().lookup(2, 0xdeadu).empty());
  expect_matches_oracle(table, oracle_of(entries));
}

TEST(SketchTable, CollapsesDuplicateTriples) {
  const std::vector<SketchEntry> entries{{42, 0, 1}, {42, 0, 1}, {42, 0, 1}};
  const SketchTable table = SketchTable::from_entries(2, entries);
  EXPECT_EQ(table.size(), 1u);
  EXPECT_EQ(table.flat().lookup(0, 42).size(), 1u);
  expect_matches_oracle(table, oracle_of(entries));
}

TEST(SketchTable, CollapsesOutOfOrderDuplicates) {
  const std::vector<SketchEntry> entries{
      {42, 0, 1}, {42, 0, 5}, {42, 0, 1}};  // out-of-order duplicate
  const SketchTable table = SketchTable::from_entries(1, entries);
  EXPECT_EQ(table.size(), 2u);
  expect_matches_oracle(table, oracle_of(entries));
}

TEST(SketchTable, KeepsDistinctSubjectsPerKey) {
  const std::vector<SketchEntry> entries{{42, 0, 3}, {42, 0, 1}, {42, 0, 2}};
  const SketchTable table = SketchTable::from_entries(1, entries);
  const auto subjects = table.flat().lookup(0, 42);
  ASSERT_EQ(subjects.size(), 3u);
  EXPECT_EQ(subjects[0], 1u);  // postings come out sorted by subject
  EXPECT_EQ(subjects[2], 3u);
}

TEST(SketchTable, InsertSketchInsertsAllTrials) {
  // sketch_subjects emits every (trial, kmer) of each subject's sketch, and
  // the table built from the list finds each of them.
  util::Xoshiro256ss rng(4);
  std::string bases(3000, 'A');
  for (char& c : bases) c = "ACGT"[rng.bounded(4)];
  io::SequenceSet subjects;
  subjects.add("s", bases);
  const MapParams params{.k = 15, .w = 10, .trials = 4, .segment_length = 500};
  params.validate();
  const HashFamily hashes(params.trials, params.seed);
  const Sketch sketch =
      make_sketch(bases, params, SketchScheme::kJem, hashes);

  const std::vector<SketchEntry> entries = sketch_subjects(
      subjects, 0, 1, params, SketchScheme::kJem, hashes);
  EXPECT_EQ(entries.size(), sketch.total_entries());
  const SketchTable table = SketchTable::from_entries(params.trials, entries);
  EXPECT_EQ(table.size(), sketch.total_entries());
  for (int t = 0; t < params.trials; ++t) {
    ASSERT_FALSE(sketch.per_trial[static_cast<std::size_t>(t)].empty());
    for (const KmerCode kmer : sketch.per_trial[static_cast<std::size_t>(t)]) {
      ASSERT_EQ(table.flat().lookup(t, kmer).size(), 1u);
      EXPECT_EQ(table.flat().lookup(t, kmer)[0], 0u);
    }
  }
}

TEST(SketchTable, InsertSketchRejectsTrialMismatch) {
  io::SequenceSet subjects;
  subjects.add("s", "ACGTACGTACGTACGTACGTACGT");
  const MapParams params{.trials = 2};
  params.validate();
  const HashFamily hashes(1, params.seed);
  EXPECT_THROW((void)sketch_subjects(subjects, 0, 1, params,
                                     SketchScheme::kJem, hashes),
               std::invalid_argument);
}

TEST(SketchTable, EntriesRoundTrip) {
  const std::vector<SketchEntry> entries{
      {100, 0, 1}, {100, 0, 2}, {200, 1, 3}, {300, 2, 1}};
  const SketchTable table = SketchTable::from_entries(3, entries);
  EXPECT_EQ(table.to_entries().size(), 4u);

  const SketchTable rebuilt = SketchTable::from_entries(3, table.to_entries());
  EXPECT_EQ(rebuilt.size(), table.size());
  EXPECT_EQ(rebuilt.flat().lookup(0, 100).size(), 2u);
  EXPECT_EQ(rebuilt.flat().lookup(1, 200).size(), 1u);
  EXPECT_EQ(rebuilt.flat().lookup(2, 300).size(), 1u);
  expect_matches_oracle(rebuilt, oracle_of(entries));
}

TEST(SketchTable, FromEntriesRejectsBadTrial) {
  const std::vector<SketchEntry> entries{{1, 5, 0}};
  EXPECT_THROW((void)SketchTable::from_entries(3, entries),
               std::invalid_argument);
  EXPECT_THROW((void)SketchTable::from_entries(3, entries, 4),
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
  EXPECT_EQ(merged.flat().lookup(0, 7).size(), 2u);
  EXPECT_EQ(merged.flat().lookup(0, 8).size(), 1u);
}

TEST(SketchTable, KeyCountCountsDistinctKeys) {
  const std::vector<SketchEntry> entries{
      {1, 0, 0},
      {1, 0, 1},  // same key
      {2, 0, 0},
      {1, 1, 0}};  // same kmer, other trial -> distinct key
  const SketchTable table = SketchTable::from_entries(2, entries);
  EXPECT_EQ(table.key_count(), 3u);
}

TEST(SketchTable, FromEntriesMatchesMapOracleAtEveryThreadCount) {
  const std::vector<SketchEntry> entries = random_entries(5, 6, 4000);
  const Oracle oracle = oracle_of(entries);
  const SketchTable serial = SketchTable::from_entries(6, entries);
  expect_matches_oracle(serial, oracle);
  for (const std::size_t threads : {2u, 3u, 4u, 8u}) {
    const SketchTable table = SketchTable::from_entries(6, entries, threads);
    expect_matches_oracle(table, oracle);
    expect_same_index(table, serial);
  }
}

TEST(SketchTable, ToEntriesIsSortedByTrialKmerSubject) {
  // to_entries walks the slot regions, whose keys sit in hash order; the
  // wire order is still (trial, kmer, subject) with duplicates collapsed.
  std::vector<SketchEntry> entries = random_entries(9, 5, 3000);
  const SketchTable table = SketchTable::from_entries(5, entries, 3);
  std::sort(entries.begin(), entries.end(),
            [](const SketchEntry& a, const SketchEntry& b) {
              return std::tie(a.trial, a.kmer, a.subject) <
                     std::tie(b.trial, b.kmer, b.subject);
            });
  entries.erase(std::unique(entries.begin(), entries.end()), entries.end());
  EXPECT_EQ(table.to_entries(), entries);
}

TEST(SketchTableFrozen, FreezeIsIdempotentAndPreservesLookups) {
  // Building again from a built table's own entries — the old "freeze an
  // already-frozen table" — reproduces it array for array.
  const std::vector<SketchEntry> entries{{10, 0, 1}, {10, 0, 2}, {20, 1, 3}};
  const SketchTable table = SketchTable::from_entries(2, entries);
  const SketchTable again = SketchTable::from_entries(2, table.to_entries());
  expect_same_index(again, table);
  EXPECT_EQ(again.flat().lookup(0, 10).size(), 2u);
  EXPECT_EQ(again.flat().lookup(1, 20).size(), 1u);
  EXPECT_TRUE(again.flat().lookup(0, 99).empty());
  EXPECT_EQ(again.size(), 3u);
  EXPECT_EQ(again.key_count(), 2u);
  EXPECT_EQ(again.trials(), 2);
}

TEST(SketchTableFrozen, FromEntriesProducesFrozenTable) {
  // Already query-ready: the flat index exists and agrees with the oracle.
  const std::vector<SketchEntry> entries{{5, 0, 1}, {5, 0, 2}, {7, 0, 0}};
  const SketchTable table = SketchTable::from_entries(1, entries);
  EXPECT_EQ(table.flat().trials(), 1);
  EXPECT_EQ(table.flat().lookup(0, 5).size(), 2u);
  EXPECT_EQ(table.flat().lookup(0, 7).size(), 1u);
  expect_matches_oracle(table, oracle_of(entries));
}

TEST(SketchTableFrozen, FromEntriesCollapsesDuplicateTriples) {
  const std::vector<SketchEntry> entries{{5, 0, 1}, {5, 0, 1}, {5, 0, 1}};
  const SketchTable table = SketchTable::from_entries(1, entries);
  EXPECT_EQ(table.size(), 1u);
  EXPECT_EQ(table.flat().lookup(0, 5).size(), 1u);
}

TEST(SketchTableFrozen, FrozenAndHashFormsAgreeOnRandomData) {
  // Property: the flat index and the map oracle hold the same sets, and
  // absent keys miss.
  const std::vector<SketchEntry> entries = random_entries(7, 4, 2000);
  const Oracle oracle = oracle_of(entries);
  const SketchTable table = SketchTable::from_entries(4, entries);
  expect_matches_oracle(table, oracle);
  for (std::uint64_t kmer = 0; kmer < 120; ++kmer) {
    for (int t = 0; t < 4; ++t) {
      const bool present = oracle.contains({t, kmer});
      EXPECT_EQ(!table.flat().lookup(t, kmer).empty(), present);
    }
  }
}

TEST(SketchTableFrozen, ToEntriesRoundTripsThroughFrozenForm) {
  const std::vector<SketchEntry> entries{{200, 1, 2}, {100, 0, 1}};
  const SketchTable table = SketchTable::from_entries(2, entries);
  const auto round = table.to_entries();
  ASSERT_EQ(round.size(), 2u);
  EXPECT_EQ(round[0], (SketchEntry{100, 0, 1}));  // (trial, kmer) order
  const SketchTable rebuilt = SketchTable::from_entries(2, round);
  EXPECT_EQ(rebuilt.flat().lookup(0, 100).size(), 1u);
  EXPECT_EQ(rebuilt.flat().lookup(1, 200).size(), 1u);
}

TEST(SketchEntry, WireSizeIsStable) {
  // The allgatherv volume accounting assumes 16-byte entries.
  EXPECT_EQ(sizeof(SketchEntry), 16u);
}

}  // namespace
}  // namespace jem::core
