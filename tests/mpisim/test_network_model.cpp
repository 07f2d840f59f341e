#include "mpisim/network_model.hpp"

#include <gtest/gtest.h>

namespace jem::mpisim {
namespace {

TEST(NetworkModel, SingleRankCollectivesAreFree) {
  NetworkModel model;
  EXPECT_DOUBLE_EQ(model.allgatherv_s(1, 1 << 20), 0.0);
}

TEST(NetworkModel, AllgathervGrowsWithVolume) {
  NetworkModel model;
  const double small = model.allgatherv_s(8, 1 << 10);
  const double large = model.allgatherv_s(8, 1 << 24);
  EXPECT_LT(small, large);
}

TEST(NetworkModel, AllgathervLatencyGrowsWithRanks) {
  NetworkModel model;
  model.sec_per_byte = 0.0;  // isolate the latency term
  EXPECT_LT(model.allgatherv_s(2, 0), model.allgatherv_s(64, 0));
  EXPECT_DOUBLE_EQ(model.allgatherv_s(2, 0), model.latency_s);
  EXPECT_DOUBLE_EQ(model.allgatherv_s(5, 0), 4 * model.latency_s);
}

TEST(NetworkModel, AllgathervBandwidthTermMatchesRingFormula) {
  NetworkModel model;
  model.latency_s = 0.0;
  const std::uint64_t bytes = 1'000'000;
  // Ring: mu * V * (p-1)/p.
  EXPECT_DOUBLE_EQ(model.allgatherv_s(4, bytes),
                   model.sec_per_byte * 1e6 * 3.0 / 4.0);
}

TEST(NetworkModel, DefaultsAreTenGigabitClass) {
  NetworkModel model;
  // 1 GB transferred should take on the order of a second at 10 Gbps.
  const double t = model.sec_per_byte * 1e9;
  EXPECT_GT(t, 0.1);
  EXPECT_LT(t, 10.0);
}

}  // namespace
}  // namespace jem::mpisim
