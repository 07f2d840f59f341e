#include "serve/server.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "core/dna.hpp"
#include "core/service.hpp"
#include "serve/client.hpp"
#include "util/prng.hpp"

namespace jem::serve {
namespace {

using core::MapServiceRequest;
using core::MapServiceResponse;

std::string random_dna(util::Xoshiro256ss& rng, std::size_t length) {
  std::string seq(length, 'A');
  for (char& c : seq) {
    c = core::code_base(static_cast<std::uint8_t>(rng.bounded(4)));
  }
  return seq;
}

/// A small service + live loopback server per fixture. Every test talks to
/// it through the real client, so the socket path is exercised end to end.
class MappingServerTest : public ::testing::Test {
 protected:
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
    service_.emplace(std::move(subjects), config_);

    util::Xoshiro256ss query_rng(17);
    for (int i = 0; i < 8; ++i) {
      const std::size_t pos = query_rng.bounded(25'000);
      queries_.push_back(genome_.substr(pos, 800));
    }
  }

  void start_server(ServerConfig config = {}) {
    config.port = 0;  // ephemeral
    server_.emplace(*service_, config);
    server_->start();
    ASSERT_NE(server_->port(), 0);
  }

  [[nodiscard]] HttpResponse post_map(const std::string& sequence,
                                      const std::string& params = "") {
    return http_post("127.0.0.1", server_->port(), "/map" + params, sequence);
  }

  std::string genome_;
  core::ServiceConfig config_;
  std::optional<core::MappingService> service_;
  std::optional<MappingServer> server_;
  std::vector<std::string> queries_;
};

TEST_F(MappingServerTest, HealthzReportsServiceState) {
  start_server();
  const HttpResponse response =
      http_get("127.0.0.1", server_->port(), "/healthz");
  EXPECT_EQ(response.status, 200);
  EXPECT_NE(response.body.find("\"status\":\"ok\""), std::string::npos);
  EXPECT_NE(response.body.find("\"subjects\":6"), std::string::npos);
  EXPECT_NE(response.body.find("\"index\":\"rebuilt\""), std::string::npos);
}

TEST_F(MappingServerTest, MetricsServeTheRegistrySnapshot) {
  start_server();
  (void)post_map(queries_[0]);
  const HttpResponse response =
      http_get("127.0.0.1", server_->port(), "/metrics");
  EXPECT_EQ(response.status, 200);
  EXPECT_EQ(response.body.rfind("{\"metrics\":[", 0), 0u);
  EXPECT_NE(response.body.find("serve.http.requests"), std::string::npos);
  EXPECT_NE(response.body.find("serve.endpoint.map.latency_ns"),
            std::string::npos);
}

TEST_F(MappingServerTest, MapResponseMatchesSingleShotService) {
  start_server();
  for (const std::string& query : queries_) {
    const MapServiceResponse expected =
        service_->map(MapServiceRequest::make().sequence(query).build());
    const HttpResponse response = post_map(query);
    ASSERT_EQ(response.status, 200);
    if (expected.mapped()) {
      const std::string fragment =
          "{\"subject\":\"" + expected.hits[0].subject_name +
          "\",\"votes\":" + std::to_string(expected.hits[0].votes) + "}";
      EXPECT_NE(response.body.find(fragment), std::string::npos)
          << response.body;
      EXPECT_NE(response.body.find("\"mapped\":true"), std::string::npos);
    } else {
      EXPECT_NE(response.body.find("\"mapped\":false"), std::string::npos);
    }
  }
}

TEST_F(MappingServerTest, MicroBatchedResponsesAreBitIdentical) {
  ServerConfig config;
  config.max_batch = 8;
  config.batch_window = std::chrono::microseconds(2000);
  start_server(config);

  // Fire every query concurrently so the batcher actually coalesces, then
  // check each response against the single-shot service answer.
  std::vector<HttpResponse> responses(queries_.size());
  std::vector<std::thread> clients;
  clients.reserve(queries_.size());
  for (std::size_t i = 0; i < queries_.size(); ++i) {
    clients.emplace_back(
        [&, i] { responses[i] = post_map(queries_[i]); });
  }
  for (std::thread& client : clients) client.join();

  for (std::size_t i = 0; i < queries_.size(); ++i) {
    ASSERT_EQ(responses[i].status, 200) << responses[i].body;
    const MapServiceResponse expected = service_->map(
        MapServiceRequest::make().sequence(queries_[i]).build());
    if (expected.mapped()) {
      const std::string fragment =
          "{\"subject\":\"" + expected.hits[0].subject_name +
          "\",\"votes\":" + std::to_string(expected.hits[0].votes) + "}";
      EXPECT_NE(responses[i].body.find(fragment), std::string::npos)
          << responses[i].body;
    }
  }
  const auto snapshot = server_->registry().snapshot();
  const auto* batches = snapshot.find("serve.batches");
  ASSERT_NE(batches, nullptr);
  EXPECT_GE(batches->value, 1u);
}

TEST_F(MappingServerTest, LoneRequestWaitsOutASubMillisecondBatchWindow) {
  // The batcher waits the whole window for company, so a lone request's
  // queue wait (admission -> batch formed) covers it, also when the
  // window is under a millisecond.
  ServerConfig config;
  config.batch_window = std::chrono::microseconds(900);
  start_server(config);
  ASSERT_EQ(post_map(queries_[0]).status, 200);

  const HttpResponse flight =
      http_get("127.0.0.1", server_->port(), "/debug/requests?limit=1");
  ASSERT_EQ(flight.status, 200);
  const std::string key = "\"queue_wait_ns\":";
  const std::size_t at = flight.body.find(key);
  ASSERT_NE(at, std::string::npos) << flight.body;
  const std::uint64_t queue_wait_ns =
      std::stoull(flight.body.substr(at + key.size()));
  EXPECT_GE(queue_wait_ns, 900'000u) << flight.body;
}

TEST_F(MappingServerTest, RoutingErrorsAreStructured) {
  start_server();
  const HttpResponse missing =
      http_get("127.0.0.1", server_->port(), "/nope");
  EXPECT_EQ(missing.status, 404);
  EXPECT_NE(missing.body.find("\"error\":\"invalid-argument\""),
            std::string::npos);

  const HttpResponse wrong_method =
      http_get("127.0.0.1", server_->port(), "/map");
  EXPECT_EQ(wrong_method.status, 405);

  const HttpResponse empty_body = post_map("");
  EXPECT_EQ(empty_body.status, 400);
  EXPECT_NE(empty_body.body.find("\"field\":\"sequence\""), std::string::npos);

  const HttpResponse bad_param = post_map(queries_[0], "?top_x=banana");
  EXPECT_EQ(bad_param.status, 400);
  EXPECT_NE(bad_param.body.find("\"field\":\"top_x\""), std::string::npos);
}

TEST_F(MappingServerTest, ExpiredDeadlineIsGatewayTimeout) {
  // Gate the batcher so the deadline lapses while the request is queued.
  std::mutex gate_mutex;
  std::condition_variable gate_cv;
  bool gate_open = false;
  ServerConfig config;
  config.batch_hook = [&] {
    std::unique_lock lock(gate_mutex);
    gate_cv.wait(lock, [&] { return gate_open; });
  };
  start_server(config);

  std::thread opener([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
    {
      std::lock_guard lock(gate_mutex);
      gate_open = true;
    }
    gate_cv.notify_all();
  });
  const HttpResponse response = post_map(queries_[0], "?deadline_ms=1");
  opener.join();
  EXPECT_EQ(response.status, 504);
  EXPECT_NE(response.body.find("\"error\":\"deadline-exceeded\""),
            std::string::npos);

  const auto snapshot = server_->registry().snapshot();
  const auto* expired = snapshot.find("serve.deadline.expired");
  ASSERT_NE(expired, nullptr);
  EXPECT_GE(expired->value, 1u);
}

TEST_F(MappingServerTest, FullWorkQueueShedsWith503RetryAfter) {
  // max_batch 1 + gated batcher: request A blocks inside the hook, request
  // B fills the capacity-1 work queue, request C must shed.
  std::mutex gate_mutex;
  std::condition_variable gate_cv;
  bool gate_open = false;
  std::atomic<int> in_hook{0};
  ServerConfig config;
  config.max_batch = 1;
  config.work_capacity = 1;
  config.retry_after_s = 7;
  config.batch_hook = [&] {
    in_hook.fetch_add(1);
    std::unique_lock lock(gate_mutex);
    gate_cv.wait(lock, [&] { return gate_open; });
  };
  start_server(config);

  std::thread first([&] { (void)post_map(queries_[0]); });
  // Wait until A is inside the hook, so B deterministically lands in the
  // work queue instead of being popped by the batcher.
  while (in_hook.load() == 0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  std::thread second([&] { (void)post_map(queries_[1]); });
  // B's enqueue is visible as the work-depth gauge going to 1.
  const auto depth_is_one = [&] {
    const auto snapshot = server_->registry().snapshot();
    const auto* depth = snapshot.find("serve.work.depth");
    return depth != nullptr && depth->level >= 1;
  };
  for (int i = 0; i < 2000 && !depth_is_one(); ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  ASSERT_TRUE(depth_is_one());

  const HttpResponse shed = post_map(queries_[2]);
  EXPECT_EQ(shed.status, 503);
  EXPECT_NE(shed.body.find("\"error\":\"overloaded\""), std::string::npos);
  bool has_retry_after = false;
  for (const auto& [name, value] : shed.headers) {
    if (name == "retry-after") {
      has_retry_after = true;
      EXPECT_EQ(value, "7");
    }
  }
  EXPECT_TRUE(has_retry_after);

  {
    std::lock_guard lock(gate_mutex);
    gate_open = true;
  }
  gate_cv.notify_all();
  first.join();
  second.join();

  const auto snapshot = server_->registry().snapshot();
  const auto* sheds = snapshot.find("serve.http.shed");
  ASSERT_NE(sheds, nullptr);
  EXPECT_GE(sheds->value, 1u);
}

TEST_F(MappingServerTest, CacheHitsEvictionsAndCollisionKeying) {
  ServerConfig config;
  config.cache_capacity = 2;
  start_server(config);

  const HttpResponse miss = post_map(queries_[0]);
  ASSERT_EQ(miss.status, 200);
  EXPECT_NE(miss.body.find("\"cache\":\"miss\""), std::string::npos);

  const HttpResponse hit = post_map(queries_[0]);
  ASSERT_EQ(hit.status, 200);
  EXPECT_NE(hit.body.find("\"cache\":\"hit\""), std::string::npos);
  // Apart from the cache marker, hit and miss answers are byte-identical.
  std::string normalized_miss = miss.body;
  std::string normalized_hit = hit.body;
  const auto strip = [](std::string& text) {
    const std::size_t at = text.find("\"cache\":\"");
    const std::size_t end = text.find('"', at + 9);
    text.erase(at, end - at + 1);
  };
  strip(normalized_miss);
  strip(normalized_hit);
  EXPECT_EQ(normalized_miss, normalized_hit);

  // Same sequence, different top_x: a distinct cache key, so no false hit.
  const HttpResponse other_key = post_map(queries_[0], "?top_x=3");
  ASSERT_EQ(other_key.status, 200);
  EXPECT_NE(other_key.body.find("\"cache\":\"miss\""), std::string::npos);

  // Capacity 2: two more distinct keys evict the oldest entry.
  (void)post_map(queries_[1]);
  const HttpResponse evicted = post_map(queries_[0]);
  EXPECT_NE(evicted.body.find("\"cache\":\"miss\""), std::string::npos);

  const auto snapshot = server_->registry().snapshot();
  const auto* hits = snapshot.find("serve.cache.hits");
  const auto* evictions = snapshot.find("serve.cache.evictions");
  ASSERT_NE(hits, nullptr);
  ASSERT_NE(evictions, nullptr);
  EXPECT_GE(hits->value, 1u);
  EXPECT_GE(evictions->value, 1u);
}

/// Many clients, mixed endpoints, while the server micro-batches — the test
/// the TSan configuration leans on for the serve layer's thread safety.
TEST_F(MappingServerTest, ConcurrentClientsAllSucceed) {
  ServerConfig config;
  config.workers = 4;
  config.max_batch = 4;
  start_server(config);

  constexpr int kThreads = 8;
  constexpr int kRequestsPerThread = 6;
  std::atomic<int> failures{0};
  std::vector<std::thread> clients;
  clients.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    clients.emplace_back([&, t] {
      for (int i = 0; i < kRequestsPerThread; ++i) {
        try {
          if (i % 3 == 2) {
            const HttpResponse response =
                http_get("127.0.0.1", server_->port(), "/healthz");
            if (response.status != 200) failures.fetch_add(1);
          } else {
            const HttpResponse response = post_map(
                queries_[static_cast<std::size_t>(t + i) % queries_.size()]);
            if (response.status != 200) failures.fetch_add(1);
          }
        } catch (const ClientError&) {
          failures.fetch_add(1);
        }
      }
    });
  }
  for (std::thread& client : clients) client.join();
  EXPECT_EQ(failures.load(), 0);

  server_->stop();
  EXPECT_FALSE(server_->running());
}

TEST_F(MappingServerTest, StopIsGracefulAndIdempotent) {
  start_server();
  ASSERT_TRUE(server_->running());
  (void)post_map(queries_[0]);
  server_->stop();
  EXPECT_FALSE(server_->running());
  server_->stop();  // idempotent
  // The port is released: a fresh server can bind and serve again.
  server_.reset();
  start_server();
  EXPECT_EQ(post_map(queries_[0]).status, 200);
}

}  // namespace
}  // namespace jem::serve
