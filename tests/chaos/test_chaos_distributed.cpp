// Chaos tests for the distributed drivers: a rank aborted by an injected
// fault must never cost queries — the driver re-maps the lost partition —
// and the report must say whether the surviving output is bit-identical
// (post-allgather abort) or degraded (shared state was lost).
#include "core/distributed.hpp"

#include <gtest/gtest.h>

#include <chrono>
#include <cstddef>
#include <string>
#include <vector>

#include "core/dna.hpp"
#include "util/fault_plan.hpp"
#include "util/prng.hpp"

namespace jem::core {
namespace {

using std::chrono::milliseconds;

std::string random_dna(util::Xoshiro256ss& rng, std::size_t length) {
  std::string seq(length, 'A');
  for (char& c : seq) {
    c = code_base(static_cast<std::uint8_t>(rng.bounded(4)));
  }
  return seq;
}

class ChaosDistributedTest : public ::testing::Test {
 protected:
  static constexpr int kRanks = 4;

  void SetUp() override {
    util::Xoshiro256ss rng(9001);
    genome_ = random_dna(rng, 40'000);
    for (int i = 0; i < 8; ++i) {
      subjects_.add("contig_" + std::to_string(i),
                    genome_.substr(static_cast<std::size_t>(i) * 5000, 5000));
    }
    params_ = MapParams{
        .k = 16, .w = 20, .trials = 8, .segment_length = 800, .seed = 7};
    params_.validate();
    util::Xoshiro256ss read_rng(13);
    for (int i = 0; i < 24; ++i) {
      const std::size_t pos = read_rng.bounded(34'000);
      const std::size_t length = 1200 + read_rng.bounded(3000);
      reads_.add("read_" + std::to_string(i), genome_.substr(pos, length));
    }
  }

  [[nodiscard]] DistributedResult baseline() const {
    return run_distributed(subjects_, reads_, params_, kRanks);
  }

  std::string genome_;
  io::SequenceSet subjects_;
  io::SequenceSet reads_;
  MapParams params_;
};

TEST_F(ChaosDistributedTest, AbortAfterSketchShareIsBitIdenticalAfterRecovery) {
  const DistributedResult golden = baseline();

  RobustnessOptions robust;
  robust.fault_plan.abort_at(1, "S4:map", 0);  // dies after S3 completed
  const DistributedResult result =
      run_distributed(subjects_, reads_, params_, kRanks, SketchScheme::kJem,
                      /*threads_per_rank=*/1, robust);

  // Rank 1 contributed its sketch before dying, so the driver's re-mapped
  // partition is computed against the exact same S_global: bit-identical.
  EXPECT_EQ(result.mappings, golden.mappings);
  EXPECT_EQ(result.report.failed_ranks, std::vector<int>{1});
  EXPECT_GT(result.report.queries_recovered, 0u);
  EXPECT_GE(result.report.faults_injected, 1u);
  EXPECT_GE(result.report.recover_s, 0.0);
  EXPECT_FALSE(result.report.degraded);
  EXPECT_EQ(result.report.queries_mapped, golden.report.queries_mapped);
}

TEST_F(ChaosDistributedTest, AbortBeforeSketchDegradesButMapsEveryQuery) {
  const DistributedResult golden = baseline();

  RobustnessOptions robust;
  robust.fault_plan.abort_at(2, "S2:sketch", 0);  // dies before sharing
  const DistributedResult result =
      run_distributed(subjects_, reads_, params_, kRanks, SketchScheme::kJem,
                      /*threads_per_rank=*/1, robust);

  // Survivors mapped against a table missing rank 2's subjects, so results
  // may differ — but every query is still mapped and the report says so.
  EXPECT_EQ(result.mappings.size(), golden.mappings.size());
  EXPECT_EQ(result.report.queries_mapped, golden.report.queries_mapped);
  EXPECT_EQ(result.report.failed_ranks, std::vector<int>{2});
  EXPECT_GT(result.report.queries_recovered, 0u);
  EXPECT_TRUE(result.report.degraded);
}

TEST_F(ChaosDistributedTest, TwoAbortedRanksStillRecoverBitIdentical) {
  const DistributedResult golden = baseline();

  RobustnessOptions robust;
  robust.fault_plan.abort_at(1, "S4:map", 0).abort_at(3, "S4:map", 0);
  const DistributedResult result =
      run_distributed(subjects_, reads_, params_, kRanks, SketchScheme::kJem,
                      /*threads_per_rank=*/1, robust);

  EXPECT_EQ(result.mappings, golden.mappings);
  EXPECT_EQ(result.report.failed_ranks, (std::vector<int>{1, 3}));
  EXPECT_FALSE(result.report.degraded);
}

TEST_F(ChaosDistributedTest, DelayOnlyPlanKeepsDistributedOutputIdentical) {
  const DistributedResult golden = baseline();

  RobustnessOptions robust;
  robust.fault_plan.delay_at(util::FaultPlan::kAnyRank, "",
                             util::FaultPlan::kAnyInvocation, milliseconds(1));
  const DistributedResult result =
      run_distributed(subjects_, reads_, params_, kRanks, SketchScheme::kJem,
                      /*threads_per_rank=*/1, robust);

  EXPECT_EQ(result.mappings, golden.mappings);
  EXPECT_TRUE(result.report.failed_ranks.empty());
  EXPECT_FALSE(result.report.degraded);
  EXPECT_GT(result.report.faults_injected, 0u);
}

TEST_F(ChaosDistributedTest, PartitionedAbortRecoversAllQueries) {
  const DistributedResult golden =
      run_distributed_partitioned(subjects_, reads_, params_, kRanks);
  EXPECT_EQ(golden.mappings, baseline().mappings)
      << "partitioned baseline must match replicated";

  RobustnessOptions robust;
  robust.fault_plan.abort_at(2, "P:map", 0);
  const DistributedResult result = run_distributed_partitioned(
      subjects_, reads_, params_, kRanks, SketchScheme::kJem, robust);

  // The dead shard stopped answering probes, so survivor results are
  // degraded — but the query count is intact.
  EXPECT_EQ(result.mappings.size(), golden.mappings.size());
  EXPECT_EQ(result.report.queries_mapped, golden.report.queries_mapped);
  EXPECT_EQ(result.report.failed_ranks, std::vector<int>{2});
  EXPECT_GT(result.report.queries_recovered, 0u);
  EXPECT_TRUE(result.report.degraded);
}

TEST_F(ChaosDistributedTest, StagedFaultPlanReBillsLostWork) {
  const DistributedResult golden =
      run_staged(subjects_, reads_, params_, kRanks);

  RobustnessOptions robust;
  robust.fault_plan.abort_at(1, "S4:map-queries", 0);
  const DistributedResult result =
      run_staged(subjects_, reads_, params_, kRanks, mpisim::NetworkModel{},
                 SketchScheme::kJem, robust);

  // The staged mode is a performance model: results stay complete and
  // identical, the abort only re-bills rank 1's map work to a recovery
  // step in the modeled timeline.
  EXPECT_EQ(result.mappings, golden.mappings);
  EXPECT_EQ(result.report.failed_ranks, std::vector<int>{1});
  EXPECT_GT(result.report.queries_recovered, 0u);
  EXPECT_GT(result.report.recover_s, 0.0);
  EXPECT_FALSE(result.report.degraded);
}

TEST_F(ChaosDistributedTest, RandomPlanReplaysIdenticallyRunToRun) {
  util::RandomFaultRates rates;
  rates.delay = 0.15;
  rates.drop = 0.15;
  rates.max_delay = milliseconds(2);
  RobustnessOptions robust;
  robust.fault_plan = util::FaultPlan::random(2026, rates);

  const auto run_once = [&] {
    return run_distributed(subjects_, reads_, params_, kRanks,
                           SketchScheme::kJem, /*threads_per_rank=*/1, robust);
  };
  const DistributedResult first = run_once();
  const DistributedResult second = run_once();
  EXPECT_EQ(first.mappings, second.mappings);
  EXPECT_EQ(first.report.failed_ranks, second.report.failed_ranks);
  EXPECT_EQ(first.report.faults_injected, second.report.faults_injected);
  EXPECT_EQ(first.report.degraded, second.report.degraded);
  EXPECT_GT(first.report.faults_injected, 0u);
}

TEST_F(ChaosDistributedTest, HybridRanksWithThreadsRecoverToo) {
  const DistributedResult golden = baseline();

  RobustnessOptions robust;
  robust.fault_plan.abort_at(0, "S4:map", 0);
  const DistributedResult result =
      run_distributed(subjects_, reads_, params_, kRanks, SketchScheme::kJem,
                      /*threads_per_rank=*/2, robust);

  EXPECT_EQ(result.mappings, golden.mappings);
  EXPECT_EQ(result.report.failed_ranks, std::vector<int>{0});
  EXPECT_FALSE(result.report.degraded);
}

}  // namespace
}  // namespace jem::core
