#include "mpisim/staged_executor.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <thread>
#include <vector>

namespace jem::mpisim {
namespace {

TEST(StagedExecutor, RunsEveryRankSequentially) {
  StagedExecutor executor(4);
  std::vector<int> order;
  executor.compute_step("step", [&](int rank) { order.push_back(rank); });
  const std::vector<int> expected{0, 1, 2, 3};
  EXPECT_EQ(order, expected);
}

TEST(StagedExecutor, ThrowsOnNonPositiveRanks) {
  EXPECT_THROW(StagedExecutor(0), std::invalid_argument);
}

TEST(StagedExecutor, StepCostIsMaxOverRanks) {
  StagedExecutor executor(3);
  executor.compute_step("uneven", [](int rank) {
    std::this_thread::sleep_for(std::chrono::milliseconds(rank * 5));
  });
  const auto& steps = executor.steps();
  ASSERT_EQ(steps.size(), 1u);
  ASSERT_EQ(steps[0].per_rank_s.size(), 3u);
  // The cost is the slowest rank's measured time, whichever rank that was:
  // on a loaded host a short sleep can outlast a longer one.
  EXPECT_DOUBLE_EQ(steps[0].cost_s,
                   *std::max_element(steps[0].per_rank_s.begin(),
                                     steps[0].per_rank_s.end()));
}

TEST(StagedExecutor, CommStepsUseTheModel) {
  NetworkModel model;
  StagedExecutor executor(8, model);
  executor.comm_allgatherv("gather", 1 << 20);
  EXPECT_DOUBLE_EQ(executor.comm_s(), model.allgatherv_s(8, 1 << 20));
  EXPECT_DOUBLE_EQ(executor.compute_s(), 0.0);
}

TEST(StagedExecutor, TotalIsComputePlusComm) {
  StagedExecutor executor(2);
  executor.compute_step("work", [](int) {
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  });
  executor.comm_allgatherv("sync", 1 << 10);
  EXPECT_DOUBLE_EQ(executor.total_s(),
                   executor.compute_s() + executor.comm_s());
  EXPECT_GT(executor.compute_s(), 0.0);
  EXPECT_GT(executor.comm_s(), 0.0);
}

TEST(StagedExecutor, StepLookupByNameSumsDuplicates) {
  StagedExecutor executor(2);
  executor.comm_allgatherv("b", 1 << 10);
  executor.comm_allgatherv("b", 1 << 10);
  executor.comm_allgatherv("other", 1 << 10);
  EXPECT_DOUBLE_EQ(executor.step_s("b"),
                   2 * executor.model().allgatherv_s(2, 1 << 10));
  EXPECT_DOUBLE_EQ(executor.step_s("missing"), 0.0);
}

TEST(StagedExecutor, RecordsCommBytes) {
  StagedExecutor executor(4);
  executor.comm_allgatherv("gather", 12345);
  executor.comm_allgatherv("second", 678);
  ASSERT_EQ(executor.steps().size(), 2u);
  EXPECT_EQ(executor.steps()[0].bytes, 12345u);
  EXPECT_EQ(executor.steps()[1].bytes, 678u);
  EXPECT_TRUE(executor.steps()[0].is_comm);
}

TEST(StagedExecutor, ModeledScalingShrinksComputeCost) {
  // A fixed total amount of work divided across more ranks must yield a
  // smaller max-per-rank cost.
  const auto run_with_ranks = [](int ranks) {
    StagedExecutor executor(ranks);
    const int total_iters = 2'000'000;
    executor.compute_step("work", [&](int rank) {
      volatile double sink = 0;
      const int iters = total_iters / ranks;
      (void)rank;
      for (int i = 0; i < iters; ++i) sink = sink + 1.0;
    });
    return executor.compute_s();
  };
  const double t1 = run_with_ranks(1);
  const double t8 = run_with_ranks(8);
  EXPECT_LT(t8, t1);
}

}  // namespace
}  // namespace jem::mpisim
