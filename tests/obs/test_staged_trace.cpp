// Satellite of docs/observability.md: a 4-rank run_staged chaos run
// (injected delays plus one aborted rank) must export a Chrome trace that
// is well-formed JSON, keeps B/E pairs matched on every track, and shows
// the re-billed "recover:<step>" spans on the recovery track.
#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cstddef>
#include <map>
#include <string>
#include <vector>

#include "core/distributed.hpp"
#include "core/dna.hpp"
#include "obs/json.hpp"
#include "obs/metrics.hpp"
#include "obs/obs.hpp"
#include "obs/trace.hpp"
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

TEST(StagedChaosTrace, FourRankChaosRunExportsWellFormedChromeTrace) {
  constexpr int kRanks = 4;
  util::Xoshiro256ss rng(9001);
  const std::string genome = random_dna(rng, 24'000);
  io::SequenceSet subjects;
  for (int i = 0; i < 6; ++i) {
    subjects.add("contig_" + std::to_string(i),
                 genome.substr(static_cast<std::size_t>(i) * 4000, 4000));
  }
  io::SequenceSet reads;
  util::Xoshiro256ss read_rng(13);
  for (int i = 0; i < 12; ++i) {
    const std::size_t pos = read_rng.bounded(20'000);
    reads.add("read_" + std::to_string(i),
              genome.substr(pos, 1200 + read_rng.bounded(2000)));
  }
  const MapParams params{
      .k = 16, .w = 20, .trials = 8, .segment_length = 800, .seed = 7};
  params.validate();

  RobustnessOptions robust;
  robust.fault_plan
      .delay_at(util::FaultPlan::kAnyRank, "S2:sketch-subjects",
                util::FaultPlan::kAnyInvocation, milliseconds(1))
      .abort_at(1, "S4:map-queries", 0);

  obs::Registry registry;
  obs::Tracer tracer(1 << 14, "staged-chaos");
  obs::ObsHooks obs;
  obs.metrics = &registry;
  obs.tracer = &tracer;

  const DistributedResult result =
      run_staged(subjects, reads, params, kRanks, mpisim::NetworkModel{},
                 SketchScheme::kJem, robust, obs);
  ASSERT_EQ(result.report.failed_ranks, std::vector<int>{1});
  ASSERT_GT(result.report.recover_s, 0.0);

  // The modeled timeline parses as one well-formed Chrome trace document.
  const std::string text = tracer.snapshot().to_chrome_json();
  const obs::json::Value doc = obs::json::parse(text);
  ASSERT_TRUE(doc.is_object());
  const obs::json::Value* events = doc.find("traceEvents");
  ASSERT_TRUE(events != nullptr && events->is_array());
  ASSERT_FALSE(events->array.empty());

  // Every track's B/E pairs are matched: no E before its B, none left open.
  std::map<double, int> depth_by_tid;
  std::map<double, std::string> open_name_by_tid;
  bool saw_recover_span = false;
  std::vector<std::string> track_names;
  for (const obs::json::Value& event : events->array) {
    ASSERT_TRUE(event.is_object());
    const obs::json::Value* ph = event.find("ph");
    ASSERT_TRUE(ph != nullptr && ph->is_string());
    const obs::json::Value* tid = event.find("tid");
    if (ph->str == "B") {
      ASSERT_TRUE(tid != nullptr);
      ++depth_by_tid[tid->number];
      const std::string& name = event.find("name")->str;
      if (name.rfind("recover:", 0) == 0) saw_recover_span = true;
    } else if (ph->str == "E") {
      ASSERT_TRUE(tid != nullptr);
      --depth_by_tid[tid->number];
      ASSERT_GE(depth_by_tid[tid->number], 0)
          << "E without matching B on tid " << tid->number;
    } else if (ph->str == "M" && event.find("name")->str == "thread_name") {
      track_names.push_back(event.find("args")->find("name")->str);
    }
  }
  for (const auto& [tid, depth] : depth_by_tid) {
    EXPECT_EQ(depth, 0) << "unbalanced spans on tid " << tid;
  }
  EXPECT_TRUE(saw_recover_span) << "aborted rank left no recover:<step> span";

  // Tracks are labeled "rank 0".."rank 3" plus the recovery track.
  EXPECT_NE(std::find(track_names.begin(), track_names.end(), "rank 0"),
            track_names.end());
  EXPECT_NE(std::find(track_names.begin(), track_names.end(), "rank 3"),
            track_names.end());
  EXPECT_NE(std::find(track_names.begin(), track_names.end(), "recovery"),
            track_names.end());

  // The metrics side of the same run: recovery steps and injected delays
  // are visible in the staged.* counters.
  const obs::MetricsSnapshot metrics = registry.snapshot();
  ASSERT_NE(metrics.find("staged.recover_steps"), nullptr);
  EXPECT_GE(metrics.find("staged.recover_steps")->value, 1u);
  ASSERT_NE(metrics.find("staged.injected_delay_ns"), nullptr);
  EXPECT_GT(metrics.find("staged.injected_delay_ns")->value, 0u);
  ASSERT_NE(metrics.find("staged.faults_injected"), nullptr);
  EXPECT_GT(metrics.find("staged.faults_injected")->value, 0u);
}

}  // namespace
}  // namespace jem::core
