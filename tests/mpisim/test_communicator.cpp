#include "mpisim/communicator.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <numeric>

namespace jem::mpisim {
namespace {

TEST(RunSpmd, RunsEveryRankExactlyOnce) {
  std::atomic<int> mask{0};
  const SpmdReport report =
      run_spmd_ft(4, [&](Comm& comm) { mask |= 1 << comm.rank(); });
  EXPECT_TRUE(report.ok());
  EXPECT_EQ(mask.load(), 0b1111);
}

TEST(RunSpmd, ReportsRankAndSize) {
  run_spmd_ft(3, [](Comm& comm) {
    EXPECT_EQ(comm.size(), 3);
    EXPECT_GE(comm.rank(), 0);
    EXPECT_LT(comm.rank(), 3);
  });
}

TEST(RunSpmd, ThrowsOnNonPositiveSize) {
  EXPECT_THROW(run_spmd_ft(0, [](Comm&) {}), std::invalid_argument);
}

TEST(RunSpmd, PropagatesRankExceptions) {
  EXPECT_THROW(run_spmd_ft(1,
                           [](Comm&) {
                             throw std::runtime_error("rank failure");
                           }),
               std::runtime_error);
}

TEST(Allgatherv, NoRankLeavesBeforeAllArrive) {
  std::atomic<int> before{0};
  std::atomic<bool> ok{true};
  run_spmd_ft(4, [&](Comm& comm) {
    ++before;
    (void)comm.allgatherv(std::vector<int>{});
    // After the collective every rank must have incremented.
    if (before.load() != 4) ok = false;
  });
  EXPECT_TRUE(ok.load());
}

TEST(Allgatherv, ConcatenatesInRankOrder) {
  run_spmd_ft(4, [](Comm& comm) {
    // Rank r contributes r+1 copies of its rank id.
    std::vector<int> local(static_cast<std::size_t>(comm.rank() + 1),
                           comm.rank());
    const std::vector<int> all = comm.allgatherv(local);
    ASSERT_EQ(all.size(), 1u + 2u + 3u + 4u);
    std::vector<int> expected{0, 1, 1, 2, 2, 2, 3, 3, 3, 3};
    EXPECT_EQ(all, expected);
  });
}

TEST(Allgatherv, HandlesEmptyContributions) {
  run_spmd_ft(3, [](Comm& comm) {
    std::vector<double> local;
    if (comm.rank() == 1) local = {2.5};
    const std::vector<double> all = comm.allgatherv(local);
    ASSERT_EQ(all.size(), 1u);
    EXPECT_DOUBLE_EQ(all[0], 2.5);
  });
}

TEST(Allgatherv, WorksWithSingleRank) {
  run_spmd_ft(1, [](Comm& comm) {
    std::vector<int> local{7, 8};
    EXPECT_EQ(comm.allgatherv(local), local);
  });
}

TEST(Allgatherv, SupportsRepeatedCollectives) {
  run_spmd_ft(3, [](Comm& comm) {
    for (int round = 0; round < 10; ++round) {
      std::vector<int> local{comm.rank() * 100 + round};
      const auto all = comm.allgatherv(local);
      ASSERT_EQ(all.size(), 3u);
      for (int r = 0; r < 3; ++r) {
        EXPECT_EQ(all[static_cast<std::size_t>(r)], r * 100 + round);
      }
    }
  });
}

TEST(Gatherv, OnlyRootReceives) {
  run_spmd_ft(4, [](Comm& comm) {
    std::vector<int> local{comm.rank()};
    const auto parts = comm.gatherv<int>(local, /*root=*/2);
    if (comm.rank() == 2) {
      ASSERT_EQ(parts.size(), 4u);
      for (int r = 0; r < 4; ++r) {
        ASSERT_EQ(parts[static_cast<std::size_t>(r)].size(), 1u);
        EXPECT_EQ(parts[static_cast<std::size_t>(r)][0], r);
      }
    } else {
      EXPECT_TRUE(parts.empty());
    }
  });
}

TEST(CommStats, CountsCollectiveVolume) {
  const CommStats stats = run_spmd_ft(2, [](Comm& comm) {
    std::vector<std::uint64_t> local{1, 2, 3};
    (void)comm.allgatherv(local);
  }).stats;
  EXPECT_EQ(stats.collective_calls, 1u);
  EXPECT_EQ(stats.collective_bytes, 2u * 3u * sizeof(std::uint64_t));
}

TEST(CommStats, CountsPerSiteTrafficByRank) {
  const CommStats stats = run_spmd_ft(2, [](Comm& comm) {
    // Rank r deposits r + 1 elements in the allgather.
    const std::vector<std::uint32_t> local(
        static_cast<std::size_t>(comm.rank() + 1), 7);
    (void)comm.allgatherv(local);
    // Rank r sends one element to each rank.
    (void)comm.all_to_allv(std::vector<std::vector<std::uint32_t>>(2, {1}));
  }).stats;
  ASSERT_EQ(stats.per_site.size(), 2u);
  const SiteCommStats& gather = stats.per_site.at("allgatherv");
  EXPECT_EQ(gather.calls, 2u);
  EXPECT_EQ(gather.sent_bytes, (std::vector<std::uint64_t>{4, 8}));
  EXPECT_EQ(gather.recv_bytes, (std::vector<std::uint64_t>{12, 12}));
  // all_to_allv deposits a u64 count per destination before the payloads.
  const SiteCommStats& routed = stats.per_site.at("all_to_allv");
  EXPECT_EQ(routed.calls, 2u);
  EXPECT_EQ(routed.sent_bytes, (std::vector<std::uint64_t>{24, 24}));
  EXPECT_EQ(stats.collective_calls, 2u);
  EXPECT_EQ(stats.collective_bytes, 12u + 48u);
}

TEST(CommStats, AllgathervChargesEveryRankWithEveryPart) {
  const CommStats stats = run_spmd_ft(4, [](Comm& comm) {
    // Rank r deposits r + 1 elements: 10 elements in all.
    const std::vector<std::uint32_t> local(
        static_cast<std::size_t>(comm.rank() + 1), 7);
    (void)comm.allgatherv(local);
  }).stats;
  const SiteCommStats& site = stats.per_site.at("allgatherv");
  EXPECT_EQ(site.sent_bytes, (std::vector<std::uint64_t>{4, 8, 12, 16}));
  EXPECT_EQ(site.recv_bytes, (std::vector<std::uint64_t>{40, 40, 40, 40}));
}

TEST(CommStats, GathervChargesOnlyTheRoot) {
  const CommStats stats = run_spmd_ft(4, [](Comm& comm) {
    const std::vector<std::uint32_t> local(
        static_cast<std::size_t>(comm.rank() + 1), 7);
    (void)comm.gatherv<std::uint32_t>(local, 2);
  }).stats;
  const SiteCommStats& site = stats.per_site.at("gatherv");
  EXPECT_EQ(site.sent_bytes, (std::vector<std::uint64_t>{4, 8, 12, 16}));
  EXPECT_EQ(site.recv_bytes, (std::vector<std::uint64_t>{0, 0, 40, 0}));
}

TEST(CommStats, AllToAllvChargesEachRankItsSlices) {
  const CommStats stats = run_spmd_ft(4, [](Comm& comm) {
    // Rank s sends s + d + 1 elements to rank d.
    std::vector<std::vector<std::uint32_t>> per_dest(4);
    for (std::size_t d = 0; d < per_dest.size(); ++d) {
      per_dest[d].assign(static_cast<std::size_t>(comm.rank()) + d + 1, 7);
    }
    (void)comm.all_to_allv(per_dest);
  }).stats;
  const SiteCommStats& site = stats.per_site.at("all_to_allv");
  // Each blob is a 4 x u64 count header plus 4 * (4s + 10) payload bytes;
  // rank d receives 4 * (s + d + 1) bytes from each source s.
  EXPECT_EQ(site.sent_bytes, (std::vector<std::uint64_t>{72, 88, 104, 120}));
  EXPECT_EQ(site.recv_bytes, (std::vector<std::uint64_t>{40, 56, 72, 88}));
}

TEST(StressTest, RandomCollectiveScheduleStaysConsistent) {
  // 40 rounds of randomly chosen collectives with randomly sized payloads;
  // every rank derives the same schedule from the round number, as a
  // well-formed SPMD program must. Verifies payload integrity throughout.
  constexpr int kRanks = 5;
  const SpmdReport report = run_spmd_ft(kRanks, [](Comm& comm) {
    std::uint64_t state = 12345;  // same stream on every rank
    const auto next = [&state] {
      state = state * 6364136223846793005ULL + 1442695040888963407ULL;
      return state >> 33;
    };
    const auto rank = static_cast<std::uint64_t>(comm.rank());
    for (int round = 0; round < 40; ++round) {
      const std::uint64_t kind = next() % 4;
      const std::size_t size = next() % 200;
      switch (kind) {
        case 0: {
          std::vector<std::uint64_t> local(size, rank * 1000 + round);
          const auto all = comm.allgatherv(local);
          ASSERT_EQ(all.size(), size * kRanks);
          for (int r = 0; r < kRanks; ++r) {
            for (std::size_t i = 0; i < size; ++i) {
              ASSERT_EQ(all[static_cast<std::size_t>(r) * size + i],
                        static_cast<std::uint64_t>(r) * 1000 + round);
            }
          }
          break;
        }
        case 1: {
          const int root = static_cast<int>(next() % kRanks);
          std::vector<std::uint32_t> local(
              size, static_cast<std::uint32_t>(rank * 1000 + round));
          const auto parts = comm.gatherv<std::uint32_t>(local, root);
          if (comm.rank() != root) {
            ASSERT_TRUE(parts.empty());
            break;
          }
          ASSERT_EQ(parts.size(), static_cast<std::size_t>(kRanks));
          for (int r = 0; r < kRanks; ++r) {
            ASSERT_EQ(parts[static_cast<std::size_t>(r)],
                      std::vector<std::uint32_t>(
                          size, static_cast<std::uint32_t>(r * 1000 + round)));
          }
          break;
        }
        case 2: {
          // Rank s sends (size + d) copies of s * 100 + d to rank d.
          std::vector<std::vector<std::uint64_t>> outgoing(kRanks);
          for (std::size_t d = 0; d < outgoing.size(); ++d) {
            outgoing[d].assign(size + d, rank * 100 + d);
          }
          const auto incoming = comm.all_to_allv(outgoing);
          ASSERT_EQ(incoming.size(), static_cast<std::size_t>(kRanks));
          for (std::size_t s = 0; s < incoming.size(); ++s) {
            ASSERT_EQ(incoming[s],
                      std::vector<std::uint64_t>(size + rank, s * 100 + rank));
          }
          break;
        }
        default:
          // An empty collective: a pure synchronization point.
          ASSERT_TRUE(comm.allgatherv(std::vector<int>{}).empty());
          break;
      }
    }
  });
  EXPECT_TRUE(report.ok());
  EXPECT_EQ(report.stats.collective_calls, 40u);
}

TEST(Allgatherv, MovesStructuredPayloads) {
  struct Payload {
    std::uint64_t key;
    std::uint32_t value;
    std::uint32_t pad;
  };
  run_spmd_ft(2, [](Comm& comm) {
    std::vector<Payload> local{{static_cast<std::uint64_t>(comm.rank()),
                                static_cast<std::uint32_t>(comm.rank() * 2),
                                0}};
    const auto all = comm.allgatherv<Payload>(local);
    ASSERT_EQ(all.size(), 2u);
    EXPECT_EQ(all[0].key, 0u);
    EXPECT_EQ(all[1].key, 1u);
    EXPECT_EQ(all[1].value, 2u);
  });
}

}  // namespace
}  // namespace jem::mpisim
