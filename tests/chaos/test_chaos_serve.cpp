// Chaos suite for the serve path (docs/serve.md "Failure modes & recovery",
// docs/robustness.md): a live loopback MappingServer under a seeded
// util::FaultPlan — connection resets, injected latency, truncated writes,
// worker aborts — driven by the resilient
// serve::Client. The acceptance contract:
//  * every request completes with bodies bit-identical to a fault-free run
//    (faults shift timing and retries, never results);
//  * the same seed replays the same injection schedule (counter-identical);
//  * aborted workers restart in place mid-run;
//  * /admin/reload hot-swaps the index under load with zero failed
//    requests, and a corrupt artifact leaves the old epoch serving.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <fstream>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "core/dna.hpp"
#include "core/engine.hpp"
#include "core/index_serde.hpp"
#include "core/mapper.hpp"
#include "core/service.hpp"
#include "serve/client.hpp"
#include "serve/server.hpp"
#include "util/fault_plan.hpp"
#include "util/prng.hpp"

namespace jem::serve {
namespace {

using std::chrono::milliseconds;

std::string random_dna(util::Xoshiro256ss& rng, std::size_t length) {
  std::string seq(length, 'A');
  for (char& c : seq) {
    c = core::code_base(static_cast<std::uint8_t>(rng.bounded(4)));
  }
  return seq;
}

class ServeChaosTest : public ::testing::Test {
 protected:
  static constexpr int kRequests = 200;

  void SetUp() override {
    util::Xoshiro256ss rng(321);
    genome_ = random_dna(rng, 30'000);
    io::SequenceSet subjects;
    for (int i = 0; i < 6; ++i) {
      subjects.add("contig_" + std::to_string(i),
                   genome_.substr(static_cast<std::size_t>(i) * 5000, 5000));
    }
    config_ = core::ServiceConfig::make()
                  .k(16)
                  .window(20)
                  .trials(16)
                  .segment_length(800)
                  .seed(11)
                  .build();
    service_ = std::make_shared<const core::MappingService>(
        std::move(subjects), config_);

    util::Xoshiro256ss query_rng(17);
    for (int i = 0; i < 8; ++i) {
      const std::size_t pos = query_rng.bounded(25'000);
      queries_.push_back(genome_.substr(pos, 800));
    }
  }

  [[nodiscard]] const std::string& query(int i) const {
    return queries_[static_cast<std::size_t>(i) % queries_.size()];
  }

  /// Writes the running service's index as a valid JEMIDX1 artifact.
  [[nodiscard]] std::string save_artifact(const std::string& name) const {
    const std::string path = ::testing::TempDir() + "/" + name;
    core::save_index(path, service_->engine().mapper().table(),
                     config_.params, config_.scheme, service_->subjects());
    return path;
  }

  /// The seeded chaos plan both determinism runs share: random resets,
  /// latency and truncated responses, plus two scripted worker aborts (one
  /// on read, one on write) so workers provably restart twice.
  [[nodiscard]] static util::FaultPlan chaos_plan(std::uint64_t seed) {
    util::RandomFaultRates rates;
    rates.delay = 0.05;
    rates.drop = 0.08;
    rates.abort = 0.0;
    rates.max_delay = milliseconds(2);
    util::FaultPlan plan = util::FaultPlan::random(seed, rates);
    plan.abort_at(util::FaultPlan::kAnyRank, "serve.read", 7);
    plan.abort_at(util::FaultPlan::kAnyRank, "serve.write", 3);
    return plan;
  }

  struct ChaosRun {
    std::vector<int> statuses;
    std::vector<std::string> bodies;
    std::map<std::string, std::uint64_t> injected;  // chaos counter values
    std::uint64_t worker_restarts = 0;
    std::uint64_t client_retries = 0;
  };

  /// Drives kRequests sequential /map requests through the resilient
  /// client against a server running `plan` (cache off, so every response
  /// reflects the index, not the LRU). Deterministic end to end: the plan
  /// is seeded, the client's jitter is seeded, the request order is fixed.
  [[nodiscard]] ChaosRun run_under_chaos(const util::FaultPlan& plan) {
    ServerConfig server_config;
    server_config.port = 0;
    server_config.cache_capacity = 0;
    server_config.fault_plan = &plan;
    MappingServer server(service_, server_config);
    server.start();

    RetryPolicy policy;
    policy.max_attempts = 8;
    policy.initial_backoff = milliseconds(1);
    policy.max_backoff = milliseconds(50);
    policy.jitter_seed = 0xfeedfacecafebeefull;
    Client client("127.0.0.1", server.port(), policy);

    ChaosRun run;
    for (int i = 0; i < kRequests; ++i) {
      const HttpResponse response = client.post("/map", query(i));
      run.statuses.push_back(response.status);
      run.bodies.push_back(response.body);
    }
    run.client_retries = client.retries();

    // The scripted aborts hit two workers; wait for both to count their
    // restarts before sampling the tallies.
    for (int i = 0; i < 5000 && server.worker_restarts() < 2; ++i) {
      std::this_thread::sleep_for(milliseconds(1));
    }
    run.worker_restarts = server.worker_restarts();

    const auto snapshot = server.registry().snapshot();
    for (const char* kind :
         {"delay", "reset", "partial", "abort", "cache_bypass"}) {
      const std::string name = std::string("serve.chaos.injected.") + kind;
      const auto* metric = snapshot.find(name);
      run.injected[name] = metric == nullptr ? 0 : metric->value;
    }
    server.stop();
    return run;
  }

  std::string genome_;
  core::ServiceConfig config_;
  std::shared_ptr<const core::MappingService> service_;
  std::vector<std::string> queries_;
};

TEST_F(ServeChaosTest, SeededFaultsCompleteBitIdenticalToFaultFreeRun) {
  // Fault-free baseline over the identical request sequence.
  ServerConfig baseline_config;
  baseline_config.port = 0;
  baseline_config.cache_capacity = 0;
  MappingServer baseline(service_, baseline_config);
  baseline.start();
  std::vector<std::string> expected;
  expected.reserve(kRequests);
  for (int i = 0; i < kRequests; ++i) {
    const HttpResponse response =
        http_post("127.0.0.1", baseline.port(), "/map", query(i));
    ASSERT_EQ(response.status, 200);
    expected.push_back(response.body);
  }
  baseline.stop();

  const util::FaultPlan plan = chaos_plan(42);
  const ChaosRun run = run_under_chaos(plan);

  // 100% completion: the resilient client absorbed every injected fault.
  for (int i = 0; i < kRequests; ++i) {
    ASSERT_EQ(run.statuses[static_cast<std::size_t>(i)], 200)
        << "request " << i;
    EXPECT_EQ(run.bodies[static_cast<std::size_t>(i)],
              expected[static_cast<std::size_t>(i)])
        << "request " << i << " diverged under chaos";
  }

  // The plan demonstrably fired: resets and both scripted aborts landed,
  // the client actually retried, and both aborted workers restarted.
  EXPECT_GE(run.injected.at("serve.chaos.injected.reset"), 1u);
  EXPECT_EQ(run.injected.at("serve.chaos.injected.abort"), 2u);
  EXPECT_GE(run.client_retries, 1u);
  EXPECT_GE(run.worker_restarts, 2u);
}

TEST_F(ServeChaosTest, SameSeedReplaysTheSameInjectionSchedule) {
  const util::FaultPlan plan_a = chaos_plan(42);
  const util::FaultPlan plan_b = chaos_plan(42);
  const ChaosRun first = run_under_chaos(plan_a);
  const ChaosRun second = run_under_chaos(plan_b);

  EXPECT_EQ(first.statuses, second.statuses);
  EXPECT_EQ(first.bodies, second.bodies);
  EXPECT_EQ(first.injected, second.injected)
      << "same seed must inject the same fault schedule";
  EXPECT_EQ(first.client_retries, second.client_retries);

  // A different seed draws a different random schedule (with these rates,
  // ~30+ injections per run — collision of every counter is implausible).
  const util::FaultPlan other = chaos_plan(43);
  const ChaosRun third = run_under_chaos(other);
  EXPECT_NE(first.injected, third.injected);
}

TEST_F(ServeChaosTest, HotSwapUnderLoadLosesNoRequests) {
  const std::string artifact = save_artifact("jem_chaos_swap.jemidx");
  ServerConfig server_config;
  server_config.port = 0;
  server_config.reload_index_path = artifact;
  MappingServer server(service_, server_config);
  server.start();

  constexpr int kThreads = 4;
  constexpr int kPerThread = 30;
  std::atomic<int> non_ok{0};
  std::atomic<int> completed{0};
  std::vector<std::thread> hammer;
  hammer.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    hammer.emplace_back([&, t] {
      for (int i = 0; i < kPerThread; ++i) {
        try {
          const HttpResponse response = http_post(
              "127.0.0.1", server.port(), "/map", query(t * kPerThread + i));
          if (response.status != 200) non_ok.fetch_add(1);
        } catch (const ClientError&) {
          non_ok.fetch_add(1);
        }
        completed.fetch_add(1);
      }
    });
  }

  // Two reloads while the hammer runs: epoch 0 -> 1 -> 2, in-flight
  // requests finish on the epoch they started with, nothing fails.
  int reloads_done = 0;
  for (std::uint64_t target_epoch = 1; target_epoch <= 2; ++target_epoch) {
    while (completed.load() < static_cast<int>(target_epoch) * 25) {
      std::this_thread::sleep_for(milliseconds(1));
    }
    const HttpResponse reload =
        http_post("127.0.0.1", server.port(), "/admin/reload", "");
    EXPECT_EQ(reload.status, 200) << reload.body;
    EXPECT_NE(reload.body.find("\"epoch\":" + std::to_string(target_epoch)),
              std::string::npos)
        << reload.body;
    ++reloads_done;
  }
  for (std::thread& thread : hammer) thread.join();

  EXPECT_EQ(non_ok.load(), 0);
  EXPECT_EQ(reloads_done, 2);
  EXPECT_EQ(server.epoch(), 2u);

  const HttpResponse healthz =
      http_get("127.0.0.1", server.port(), "/healthz");
  EXPECT_NE(healthz.body.find("\"epoch\":2"), std::string::npos);
  EXPECT_NE(healthz.body.find("\"index\":\"artifact\""), std::string::npos);

  // Post-swap responses still match the single-shot service (same index
  // bytes, new epoch).
  const core::MapServiceResponse expected = service_->map(
      core::MapServiceRequest{.sequence = query(0)});
  const HttpResponse after =
      http_post("127.0.0.1", server.port(), "/map", query(0));
  ASSERT_EQ(after.status, 200);
  if (expected.mapped()) {
    EXPECT_NE(after.body.find("\"subject\":\"" +
                              expected.hits[0].subject_name + "\""),
              std::string::npos);
  }
  server.stop();
}

TEST_F(ServeChaosTest, CorruptArtifactLeavesOldEpochServing) {
  const std::string corrupt = ::testing::TempDir() + "/jem_chaos_corrupt.bin";
  {
    std::ofstream out(corrupt, std::ios::binary);
    out << "this is not a JEMIDX1 artifact";
  }
  ServerConfig server_config;
  server_config.port = 0;
  MappingServer server(service_, server_config);
  server.start();

  // Direct API: structured failure, epoch untouched.
  const MappingServer::ReloadOutcome outcome = server.reload_index(corrupt);
  EXPECT_FALSE(outcome.success);
  EXPECT_FALSE(outcome.error.empty());
  EXPECT_EQ(outcome.epoch, 0u);
  EXPECT_EQ(server.epoch(), 0u);

  // HTTP path: 409 with the structured index-unavailable error.
  const HttpResponse rejected = http_post(
      "127.0.0.1", server.port(), "/admin/reload?path=" + corrupt, "");
  EXPECT_EQ(rejected.status, 409);
  EXPECT_NE(rejected.body.find("\"error\":\"index-unavailable\""),
            std::string::npos)
      << rejected.body;

  // A params-mismatched (but well-formed) artifact is equally rejected.
  io::SequenceSet other_subjects;
  for (int i = 0; i < 6; ++i) {
    other_subjects.add(
        "contig_" + std::to_string(i),
        genome_.substr(static_cast<std::size_t>(i) * 5000, 5000));
  }
  const core::ServiceConfig other_config = core::ServiceConfig::make()
                                               .k(18)
                                               .window(20)
                                               .trials(16)
                                               .segment_length(800)
                                               .seed(11)
                                               .build();
  const core::MappingService other_service(std::move(other_subjects),
                                           other_config);
  const std::string mismatched =
      ::testing::TempDir() + "/jem_chaos_mismatch.jemidx";
  core::save_index(mismatched, other_service.engine().mapper().table(),
                   other_config.params, other_config.scheme,
                   other_service.subjects());
  const MappingServer::ReloadOutcome wrong_params =
      server.reload_index(mismatched);
  EXPECT_FALSE(wrong_params.success);
  EXPECT_FALSE(wrong_params.error.empty());
  EXPECT_EQ(server.epoch(), 0u);

  // Old index keeps serving; /admin/reload only answers POST.
  const HttpResponse still_serving =
      http_post("127.0.0.1", server.port(), "/map", query(0));
  EXPECT_EQ(still_serving.status, 200);
  const HttpResponse wrong_method =
      http_get("127.0.0.1", server.port(), "/admin/reload");
  EXPECT_EQ(wrong_method.status, 405);

  const auto snapshot = server.registry().snapshot();
  const auto* rejected_total = snapshot.find("serve.reload.rejected");
  ASSERT_NE(rejected_total, nullptr);
  EXPECT_GE(rejected_total->value, 3u);
  server.stop();
}

}  // namespace
}  // namespace jem::serve
