#include "core/flat_index.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <set>
#include <span>
#include <utility>
#include <vector>

#include "core/sketch_table.hpp"
#include "util/prng.hpp"

namespace jem::core {
namespace {

/// `entries` random (trial, kmer, subject) triples, keys drawn from a pool
/// of `distinct_keys` so postings lists get multiple subjects.
std::vector<SketchEntry> random_entries(util::Xoshiro256ss& rng, int trials,
                                        std::size_t entries,
                                        std::size_t distinct_keys,
                                        std::size_t subjects) {
  std::vector<KmerCode> pool(distinct_keys);
  for (auto& kmer : pool) kmer = rng();
  std::vector<SketchEntry> out(entries);
  for (SketchEntry& entry : out) {
    entry.trial = static_cast<std::uint32_t>(
        rng.bounded(static_cast<std::uint64_t>(trials)));
    entry.kmer = pool[rng.bounded(pool.size())];
    entry.subject = static_cast<io::SeqId>(rng.bounded(subjects));
  }
  return out;
}

TEST(FlatSketchIndex, MatchesCsrLookupOnRandomTables) {
  // Judged against an ordered-map oracle of the input entries: the
  // (trial, kmer) -> subject-set lists of S_global, in CSR order.
  util::Xoshiro256ss rng(11);
  for (int round = 0; round < 20; ++round) {
    const int trials = 1 + static_cast<int>(rng.bounded(8));
    const std::size_t keys = 1 + rng.bounded(300);
    const std::vector<SketchEntry> entries = random_entries(
        rng, trials, 10 + rng.bounded(2000), keys, 1 + rng.bounded(50));
    const SketchTable table = SketchTable::from_entries(trials, entries);
    const FlatSketchIndex& index = table.flat();
    std::map<std::pair<int, KmerCode>, std::set<io::SeqId>> oracle;
    for (const SketchEntry& entry : entries) {
      oracle[{static_cast<int>(entry.trial), entry.kmer}].insert(
          entry.subject);
    }
    EXPECT_EQ(index.key_count(), oracle.size());
    EXPECT_GE(index.capacity(), 2 * index.kmer_count());

    // Every k-mer of the input, in every trial: the postings are the
    // oracle's subject set sorted by id, or empty where the trial lacks it.
    for (const SketchEntry& entry : entries) {
      for (int trial = 0; trial < trials; ++trial) {
        const auto it = oracle.find({trial, entry.kmer});
        const std::vector<io::SeqId> want =
            it == oracle.end() ? std::vector<io::SeqId>{}
                               : std::vector<io::SeqId>(it->second.begin(),
                                                        it->second.end());
        const auto flat = index.lookup(trial, entry.kmer);
        ASSERT_EQ(std::vector<io::SeqId>(flat.begin(), flat.end()), want);
      }
    }

    // Random k-mers outside the key pool miss in every trial.
    for (int probe = 0; probe < 200; ++probe) {
      const KmerCode kmer = rng();
      for (int trial = 0; trial < trials; ++trial) {
        EXPECT_EQ(index.lookup(trial, kmer).empty(),
                  !oracle.contains({trial, kmer}));
      }
    }
  }
}

TEST(FlatSketchIndex, LookupManyMatchesSingleLookups) {
  util::Xoshiro256ss rng(12);
  const SketchTable table =
      SketchTable::from_entries(4, random_entries(rng, 4, 3000, 400, 64));
  const FlatSketchIndex& index = table.flat();

  for (int t = 0; t < 4; ++t) {
    // A mix of present and absent keys, long enough to engage prefetching.
    std::vector<KmerCode> kmers;
    for (int i = 0; i < 500; ++i) kmers.push_back(rng());
    for (const SketchEntry& entry : table.to_entries()) {
      if (static_cast<int>(entry.trial) == t) kmers.push_back(entry.kmer);
    }

    std::vector<std::span<const io::SeqId>> out(kmers.size());
    index.lookup_many(t, kmers, out);
    for (std::size_t i = 0; i < kmers.size(); ++i) {
      const auto single = index.lookup(t, kmers[i]);
      ASSERT_EQ(single.size(), out[i].size());
      ASSERT_EQ(single.data(), out[i].data());
    }
  }
}

TEST(FlatSketchIndex, EmptyTrialsLookupCleanly) {
  const std::vector<SketchEntry> entries{{77, 2, 9}};
  // Trials 0, 1, 3 and 4 stay empty.
  const SketchTable table = SketchTable::from_entries(5, entries);
  const FlatSketchIndex& index = table.flat();
  EXPECT_EQ(index.trials(), 5);
  for (int t = 0; t < 5; ++t) {
    if (t == 2) {
      ASSERT_EQ(index.lookup(t, 77).size(), 1u);
      EXPECT_EQ(index.lookup(t, 77)[0], 9u);
    } else {
      EXPECT_TRUE(index.lookup(t, 77).empty());
    }
    EXPECT_TRUE(index.lookup(t, 78).empty());
  }
}

TEST(FlatSketchIndex, FromEntriesBuildsSameIndexAsFreeze) {
  // The index does not depend on the entry order or on how many threads
  // build it: the capacity, slot array and postings arrays are equal part
  // for part.
  util::Xoshiro256ss rng(13);
  std::vector<SketchEntry> entries = random_entries(rng, 3, 1500, 200, 32);
  const SketchTable serial = SketchTable::from_entries(3, entries);
  std::reverse(entries.begin(), entries.end());
  for (const std::size_t threads : {1u, 2u, 4u}) {
    const SketchTable rebuilt =
        SketchTable::from_entries(3, entries, threads);
    const FlatSketchIndex& a = serial.flat();
    const FlatSketchIndex& b = rebuilt.flat();
    EXPECT_EQ(a.key_count(), b.key_count());
    EXPECT_TRUE(std::ranges::equal(a.slots(), b.slots()));
    EXPECT_EQ(a.capacity(), b.capacity());
    EXPECT_TRUE(std::ranges::equal(a.trial_ids(), b.trial_ids()));
    EXPECT_TRUE(std::ranges::equal(a.subjects(), b.subjects()));
  }
}

TEST(FlatSketchIndex, AdversarialKeysCollidingInLowBits) {
  // Keys equal modulo a small power of two all hash to nearby home slots
  // only if mix64 fails to spread them; either way linear probing must
  // resolve every key.
  std::vector<SketchEntry> entries;
  for (std::uint64_t i = 0; i < 256; ++i) {
    entries.push_back({i << 32, 0, static_cast<io::SeqId>(i)});
  }
  const SketchTable table = SketchTable::from_entries(1, entries);
  const FlatSketchIndex& index = table.flat();
  for (std::uint64_t i = 0; i < 256; ++i) {
    const auto postings = index.lookup(0, i << 32);
    ASSERT_EQ(postings.size(), 1u);
    EXPECT_EQ(postings[0], static_cast<io::SeqId>(i));
  }
}

}  // namespace
}  // namespace jem::core
