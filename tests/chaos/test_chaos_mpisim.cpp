// Chaos tests for the mpisim robustness layer: injected delays, drops and
// rank aborts against the collectives. The
// invariants under test are (a) nothing deadlocks, (b) delay-only plans
// change timing but never results, (c) a dead rank degrades — never hangs —
// its peers, and (d) the same seed replays the same schedule.
#include <gtest/gtest.h>

#include <chrono>
#include <cstdint>
#include <numeric>
#include <tuple>
#include <vector>

#include "mpisim/communicator.hpp"
#include "util/fault_plan.hpp"

namespace jem::mpisim {
namespace {

using std::chrono::milliseconds;

SpmdOptions with_plan(const util::FaultPlan& plan) {
  SpmdOptions options;
  options.fault_plan = &plan;
  return options;
}

std::vector<int> rank_payload(int rank) {
  std::vector<int> payload(static_cast<std::size_t>(rank) + 1);
  std::iota(payload.begin(), payload.end(), rank * 100);
  return payload;
}

TEST(ChaosMpisim, DelayOnlyPlanKeepsCollectiveResultsBitIdentical) {
  const int ranks = 4;
  const auto run_with = [&](const util::FaultPlan* plan) {
    std::vector<std::vector<int>> gathered(static_cast<std::size_t>(ranks));
    std::vector<std::vector<std::vector<int>>> routed(
        static_cast<std::size_t>(ranks));
    std::vector<std::vector<int>> at_root;
    SpmdOptions options;
    options.fault_plan = plan;
    const SpmdReport report = run_spmd_ft(
        ranks,
        [&](Comm& comm) {
          const auto r = static_cast<std::size_t>(comm.rank());
          gathered[r] = comm.allgatherv<int>(rank_payload(comm.rank()));
          std::vector<std::vector<int>> outgoing(
              static_cast<std::size_t>(ranks), rank_payload(comm.rank()));
          routed[r] = comm.all_to_allv(outgoing);
          auto parts = comm.gatherv<int>(rank_payload(comm.rank()), 0);
          if (comm.rank() == 0) at_root = std::move(parts);
        },
        options);
    EXPECT_TRUE(report.ok());
    return std::make_tuple(gathered, routed, at_root);
  };

  util::FaultPlan delays;
  delays.delay_at(util::FaultPlan::kAnyRank, "", util::FaultPlan::kAnyInvocation,
                  milliseconds(2));
  const auto baseline = run_with(nullptr);
  const auto delayed = run_with(&delays);
  EXPECT_EQ(baseline, delayed);
}

TEST(ChaosMpisim, AbortedRankDegradesCollectivesWithoutDeadlock) {
  util::FaultPlan plan;
  plan.abort_at(1, "allgatherv", 0);  // rank 1 dies entering the allgather

  std::vector<std::vector<int>> gathered(4);
  const SpmdReport report = run_spmd_ft(
      4,
      [&](Comm& comm) {
        gathered[static_cast<std::size_t>(comm.rank())] =
            comm.allgatherv<int>(rank_payload(comm.rank()));
      },
      with_plan(plan));

  ASSERT_EQ(report.failures.size(), 1u);
  EXPECT_EQ(report.failures[0].rank, 1);
  EXPECT_EQ(report.failures[0].site, "allgatherv");
  EXPECT_EQ(report.failed_ranks(), std::vector<int>{1});
  EXPECT_GE(report.faults_injected, 1u);

  // Survivors observe the union minus rank 1's contribution.
  std::vector<int> expected;
  for (const int rank : {0, 2, 3}) {
    const auto part = rank_payload(rank);
    expected.insert(expected.end(), part.begin(), part.end());
  }
  for (const int rank : {0, 2, 3}) {
    EXPECT_EQ(gathered[static_cast<std::size_t>(rank)], expected)
        << "rank " << rank;
  }
  EXPECT_TRUE(gathered[1].empty());
}

TEST(ChaosMpisim, EarlyReturningRankDoesNotHangPeers) {
  std::vector<int> sums(3, -1);
  const CommStats stats = run_spmd_ft(3, [&](Comm& comm) {
    if (comm.rank() == 2) return;  // leaves before any collective
    const std::vector<int> all =
        comm.allgatherv(std::vector<int>{comm.rank() + 1});
    sums[static_cast<std::size_t>(comm.rank())] =
        std::accumulate(all.begin(), all.end(), 0);
  }).stats;
  EXPECT_EQ(sums[0], 3);  // 1 + 2; rank 2 contributed nothing
  EXPECT_EQ(sums[1], 3);
  EXPECT_EQ(sums[2], -1);
  EXPECT_GE(stats.collective_calls, 1u);
}

TEST(ChaosMpisim, DroppedPayloadKeepsProtocolAligned) {
  util::FaultPlan plan;
  plan.drop_at(2, "allgatherv", 0);  // rank 2 participates but loses its data

  std::vector<std::vector<int>> gathered(3);
  const SpmdReport report = run_spmd_ft(
      3,
      [&](Comm& comm) {
        gathered[static_cast<std::size_t>(comm.rank())] =
            comm.allgatherv<int>(rank_payload(comm.rank()));
        // The next collective still lines up for everyone.
        EXPECT_EQ(comm.allgatherv(std::vector<int>{comm.rank()}),
                  (std::vector<int>{0, 1, 2}));
      },
      with_plan(plan));

  EXPECT_TRUE(report.ok()) << "a drop must not kill the rank";
  std::vector<int> expected = rank_payload(0);
  const auto r1 = rank_payload(1);
  expected.insert(expected.end(), r1.begin(), r1.end());
  for (int rank = 0; rank < 3; ++rank) {
    EXPECT_EQ(gathered[static_cast<std::size_t>(rank)], expected);
  }
}

TEST(ChaosMpisim, GatherFromDeadPeerLeavesItsSlotEmpty) {
  util::FaultPlan plan;
  plan.abort_at(1, "before-gather", 0);

  std::vector<std::vector<int>> at_root;
  const SpmdReport report = run_spmd_ft(
      3,
      [&](Comm& comm) {
        comm.fault_point("before-gather");
        auto parts = comm.gatherv<int>(rank_payload(comm.rank()), /*root=*/0);
        if (comm.rank() == 0) at_root = std::move(parts);
      },
      with_plan(plan));
  EXPECT_EQ(report.failed_ranks(), std::vector<int>{1});
  ASSERT_EQ(at_root.size(), 3u);
  EXPECT_EQ(at_root[0], rank_payload(0));
  EXPECT_TRUE(at_root[1].empty());
  EXPECT_EQ(at_root[2], rank_payload(2));
}

TEST(ChaosMpisim, ContributionsBeforeDeathStayDelivered) {
  util::FaultPlan plan;
  plan.abort_at(1, "after-gather", 0);

  std::vector<std::vector<int>> first(3);
  std::vector<std::vector<int>> second(3);
  const SpmdReport report = run_spmd_ft(
      3,
      [&](Comm& comm) {
        const auto r = static_cast<std::size_t>(comm.rank());
        first[r] = comm.allgatherv<int>(rank_payload(comm.rank()));
        comm.fault_point("after-gather");
        second[r] = comm.allgatherv<int>(rank_payload(comm.rank()));
      },
      with_plan(plan));
  EXPECT_EQ(report.failed_ranks(), std::vector<int>{1});

  // The round rank 1 finished before dying carries its data to everyone;
  // the next round completes without it.
  std::vector<int> all;
  std::vector<int> survivors;
  for (const int rank : {0, 1, 2}) {
    const auto part = rank_payload(rank);
    all.insert(all.end(), part.begin(), part.end());
    if (rank != 1) survivors.insert(survivors.end(), part.begin(), part.end());
  }
  for (const int rank : {0, 2}) {
    EXPECT_EQ(first[static_cast<std::size_t>(rank)], all);
    EXPECT_EQ(second[static_cast<std::size_t>(rank)], survivors);
  }
  EXPECT_EQ(first[1], all);
  EXPECT_TRUE(second[1].empty());
}

TEST(ChaosMpisim, DroppedAllToAllvDeliversEmptyLanes) {
  util::FaultPlan plan;
  plan.drop_at(1, "all_to_allv", 0);  // the payload vanishes in transit

  std::vector<std::vector<std::vector<int>>> received(2);
  const SpmdReport report = run_spmd_ft(
      2,
      [&](Comm& comm) {
        const std::vector<std::vector<int>> outgoing(
            2, rank_payload(comm.rank()));
        // Like a dropped allgatherv contribution, the sender still takes
        // part (the protocol stays aligned) — only its data is voided.
        received[static_cast<std::size_t>(comm.rank())] =
            comm.all_to_allv(outgoing);
      },
      with_plan(plan));
  EXPECT_TRUE(report.ok());
  EXPECT_GE(report.faults_injected, 1u);
  for (const auto& lanes : received) {
    ASSERT_EQ(lanes.size(), 2u);
    EXPECT_EQ(lanes[0], rank_payload(0));
    EXPECT_TRUE(lanes[1].empty());
  }
}

TEST(ChaosMpisim, SameSeedSameSchedule) {
  util::RandomFaultRates rates;
  rates.delay = 0.1;
  rates.drop = 0.1;
  rates.max_delay = milliseconds(2);
  const util::FaultPlan plan = util::FaultPlan::random(1234, rates);

  const auto run_once = [&] {
    std::vector<std::vector<int>> gathered(3);
    SpmdOptions options;
    options.fault_plan = &plan;
    const SpmdReport report = run_spmd_ft(
        3,
        [&](Comm& comm) {
          auto& out = gathered[static_cast<std::size_t>(comm.rank())];
          for (int round = 0; round < 10; ++round) {
            const auto part = comm.allgatherv<int>(rank_payload(comm.rank()));
            out.insert(out.end(), part.begin(), part.end());
          }
        },
        options);
    EXPECT_TRUE(report.ok());
    return std::make_pair(gathered, report.faults_injected);
  };

  const auto first = run_once();
  const auto second = run_once();
  EXPECT_EQ(first.first, second.first);
  EXPECT_EQ(first.second, second.second);
  EXPECT_GT(first.second, 0u) << "plan never fired; rates too low for test";
}

}  // namespace
}  // namespace jem::mpisim
