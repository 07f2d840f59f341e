// FaultPlan/FaultInjector unit tests: the fault schedule must be a pure
// deterministic function of (seed, rank, site, invocation) — that property
// is what makes every other chaos test reproducible.
#include "util/fault_plan.hpp"

#include <gtest/gtest.h>

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace jem::util {
namespace {

using std::chrono::milliseconds;

TEST(FaultPlan, EmptyPlanNeverFires) {
  const FaultPlan plan;
  EXPECT_TRUE(plan.empty());
  for (int rank = 0; rank < 4; ++rank) {
    for (std::uint64_t i = 0; i < 100; ++i) {
      EXPECT_EQ(plan.decide(rank, "anything", i).action, FaultAction::kNone);
    }
  }
}

TEST(FaultPlan, ExplicitEventMatchesExactKey) {
  FaultPlan plan;
  plan.abort_at(2, "allgatherv", 1);
  EXPECT_FALSE(plan.empty());

  EXPECT_EQ(plan.decide(2, "allgatherv", 1).action, FaultAction::kAbort);
  // Any component off by one misses.
  EXPECT_EQ(plan.decide(1, "allgatherv", 1).action, FaultAction::kNone);
  EXPECT_EQ(plan.decide(2, "allgatherv", 0).action, FaultAction::kNone);
  EXPECT_EQ(plan.decide(2, "gatherv", 1).action, FaultAction::kNone);
}

TEST(FaultPlan, WildcardsMatchAnyComponent) {
  FaultPlan plan;
  plan.drop_at(FaultPlan::kAnyRank, "send", FaultPlan::kAnyInvocation);
  for (int rank = 0; rank < 8; ++rank) {
    for (std::uint64_t i = 0; i < 5; ++i) {
      EXPECT_EQ(plan.decide(rank, "send", i).action, FaultAction::kDrop);
    }
  }
  EXPECT_EQ(plan.decide(0, "recv", 0).action, FaultAction::kNone);

  FaultPlan any_site;
  any_site.delay_at(1, "", 0, milliseconds(7));
  const FaultDecision decision = any_site.decide(1, "whatever", 0);
  EXPECT_EQ(decision.action, FaultAction::kDelay);
  EXPECT_EQ(decision.delay, milliseconds(7));
  EXPECT_EQ(any_site.decide(0, "whatever", 0).action, FaultAction::kNone);
}

TEST(FaultPlan, FirstRegisteredMatchWins) {
  FaultPlan plan;
  plan.drop_at(0, "map", 3).abort_at(FaultPlan::kAnyRank, "map",
                                     FaultPlan::kAnyInvocation);
  EXPECT_EQ(plan.decide(0, "map", 3).action, FaultAction::kDrop);
  EXPECT_EQ(plan.decide(0, "map", 4).action, FaultAction::kAbort);
}

TEST(FaultPlan, RandomPlanIsDeterministicInTheSeed) {
  RandomFaultRates rates;
  rates.delay = 0.2;
  rates.drop = 0.1;
  rates.abort = 0.05;
  const FaultPlan a = FaultPlan::random(42, rates);
  const FaultPlan b = FaultPlan::random(42, rates);
  const FaultPlan c = FaultPlan::random(43, rates);

  bool any_difference_from_c = false;
  for (int rank = 0; rank < 4; ++rank) {
    for (std::uint64_t i = 0; i < 200; ++i) {
      const FaultDecision da = a.decide(rank, "map", i);
      const FaultDecision db = b.decide(rank, "map", i);
      EXPECT_EQ(da.action, db.action);
      EXPECT_EQ(da.delay, db.delay);
      if (da.action != c.decide(rank, "map", i).action) {
        any_difference_from_c = true;
      }
    }
  }
  EXPECT_TRUE(any_difference_from_c) << "different seeds gave one schedule";
}

TEST(FaultPlan, RandomPlanIsPureAcrossCallOrderings) {
  RandomFaultRates rates;
  rates.delay = 0.3;
  rates.drop = 0.2;
  rates.abort = 0.1;
  const FaultPlan plan = FaultPlan::random(7, rates);
  // Querying in reverse must give the same per-key answers.
  std::vector<FaultAction> forward;
  for (std::uint64_t i = 0; i < 50; ++i) {
    forward.push_back(plan.decide(1, "map", i).action);
  }
  for (std::uint64_t i = 50; i-- > 0;) {
    EXPECT_EQ(plan.decide(1, "map", i).action, forward[i]);
  }
}

TEST(FaultPlan, RandomRatesRoughlyRealized) {
  RandomFaultRates rates;
  rates.delay = 0.5;
  const FaultPlan plan = FaultPlan::random(11, rates);
  int delays = 0;
  const int n = 2000;
  for (int i = 0; i < n; ++i) {
    if (plan.decide(0, "site", static_cast<std::uint64_t>(i)).action ==
        FaultAction::kDelay) {
      ++delays;
    }
  }
  EXPECT_GT(delays, n / 4);
  EXPECT_LT(delays, 3 * n / 4);
}

TEST(FaultPlan, RandomValidatesRates) {
  RandomFaultRates over_one;
  over_one.delay = 0.9;
  over_one.drop = 0.2;
  EXPECT_THROW((void)FaultPlan::random(1, over_one), std::invalid_argument);

  RandomFaultRates negative;
  negative.delay = -0.1;
  EXPECT_THROW((void)FaultPlan::random(1, negative), std::invalid_argument);

  RandomFaultRates zero_delay;
  zero_delay.delay = 0.1;
  zero_delay.max_delay = milliseconds(0);
  EXPECT_THROW((void)FaultPlan::random(1, zero_delay), std::invalid_argument);
}

TEST(FaultPlan, InjectorCountsPerSiteInvocations) {
  FaultPlan plan;
  plan.drop_at(0, "a", 1).abort_at(0, "b", 0);
  FaultInjector injector(&plan, 0);
  ASSERT_TRUE(injector.active());

  EXPECT_TRUE(injector.fire("a"));    // a#0: none
  EXPECT_FALSE(injector.fire("a"));   // a#1: drop
  EXPECT_TRUE(injector.fire("a"));    // a#2: none
  EXPECT_THROW(injector.fire("b"), FaultAbort);  // b#0: abort

  EXPECT_EQ(injector.drops_injected(), 1u);
  EXPECT_EQ(injector.aborts_injected(), 1u);
  EXPECT_EQ(injector.delays_injected(), 0u);
  EXPECT_EQ(injector.faults_injected(), 2u);
}

TEST(FaultPlan, InjectorOnNullOrEmptyPlanIsInactive) {
  FaultInjector null_injector(nullptr, 3);
  EXPECT_FALSE(null_injector.active());
  EXPECT_TRUE(null_injector.fire("anything"));

  const FaultPlan empty;
  FaultInjector empty_injector(&empty, 3);
  EXPECT_FALSE(empty_injector.active());
  EXPECT_TRUE(empty_injector.fire("anything"));
  EXPECT_EQ(empty_injector.faults_injected(), 0u);
}

TEST(FaultPlan, FaultAbortCarriesRankAndSite) {
  FaultPlan plan;
  plan.abort_at(5, "S4:map", 0);
  FaultInjector injector(&plan, 5);
  try {
    (void)injector.fire("S4:map");
    FAIL() << "expected FaultAbort";
  } catch (const FaultAbort& abort) {
    EXPECT_EQ(abort.rank(), 5);
    EXPECT_EQ(abort.site(), "S4:map");
    EXPECT_NE(std::string(abort.what()).find("rank 5"), std::string::npos);
  }
}

}  // namespace
}  // namespace jem::util
