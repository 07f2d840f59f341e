#include "core/flat_index.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <span>
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
  util::Xoshiro256ss rng(11);
  for (int round = 0; round < 20; ++round) {
    const int trials = 1 + static_cast<int>(rng.bounded(8));
    const std::size_t keys = 1 + rng.bounded(300);
    const std::vector<SketchEntry> entries = random_entries(
        rng, trials, 10 + rng.bounded(2000), keys, 1 + rng.bounded(50));
    const SketchTable table = SketchTable::from_entries(trials, entries);
    const FlatSketchIndex& index = table.flat();
    EXPECT_EQ(index.key_count(), table.key_count());
    EXPECT_GE(index.capacity(), 2 * index.key_count());

    // Every stored key: flat postings == CSR postings (same order too —
    // both are sorted by subject id).
    for (const SketchEntry& entry : entries) {
      const auto trial = static_cast<int>(entry.trial);
      const auto csr = table.lookup(trial, entry.kmer);
      const auto flat = index.lookup(trial, entry.kmer);
      ASSERT_EQ(csr.size(), flat.size());
      for (std::size_t i = 0; i < csr.size(); ++i) {
        ASSERT_EQ(csr[i], flat[i]);
      }
    }

    // Random absent keys miss in both forms.
    for (int probe = 0; probe < 200; ++probe) {
      const KmerCode kmer = rng();
      const int trial = static_cast<int>(
          rng.bounded(static_cast<std::uint64_t>(trials)));
      EXPECT_EQ(table.lookup(trial, kmer).empty(),
                index.lookup(trial, kmer).empty());
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
  // build it: the slot array, region geometry and postings pool are equal
  // part for part.
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
    EXPECT_TRUE(std::ranges::equal(a.bases(), b.bases()));
    EXPECT_TRUE(std::ranges::equal(a.masks(), b.masks()));
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
