#include "serve/server.hpp"

#include <arpa/inet.h>
#include <gtest/gtest.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <string>
#include <thread>
#include <vector>

#include "core/dna.hpp"
#include "core/service.hpp"
#include "serve/client.hpp"
#include "util/fault_plan.hpp"
#include "util/prng.hpp"

namespace jem::serve {
namespace {

using core::MapServiceRequest;
using core::MapServiceResponse;

/// Blocking loopback connect that sends nothing; returns -1 on failure.
int connect_raw(std::uint16_t port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return -1;
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    return -1;
  }
  return fd;
}

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
  util::FaultPlan plan_;  // outlives server_, which points at it
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
        service_->map(MapServiceRequest{.sequence = query});
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

/// An error body with its leading `"trace_id":"…","request_id":"…",` pair
/// removed: what is left is fixed by the request alone.
std::string without_ids(const std::string& body) {
  const std::string prefix = "{\"trace_id\":\"";
  if (body.rfind(prefix, 0) != 0) return body;
  const std::size_t request_id = body.find("\"request_id\":\"");
  if (request_id == std::string::npos) return body;
  const std::size_t end = body.find("\",", request_id + 14);
  if (end == std::string::npos) return body;
  return "{" + body.substr(end + 2);
}

TEST_F(MappingServerTest, RoutingErrorsAreStructured) {
  start_server();
  const HttpResponse missing =
      http_get("127.0.0.1", server_->port(), "/nope");
  EXPECT_EQ(missing.status, 404);
  EXPECT_NE(missing.body.find("\"error\":\"invalid-argument\""),
            std::string::npos);
  EXPECT_EQ(without_ids(missing.body),
            "{\"error\":\"invalid-argument\",\"field\":\"path\","
            "\"message\":\"no such endpoint '/nope'\"}");

  const HttpResponse wrong_method =
      http_get("127.0.0.1", server_->port(), "/map");
  EXPECT_EQ(wrong_method.status, 405);

  // Every endpoint answers a method it does not take with the same 405
  // body shape, whichever wrong method is sent.
  struct Route {
    const char* path;
    const char* method;
  };
  for (const Route route : {Route{"/map", "POST"}, Route{"/healthz", "GET"},
                            Route{"/metrics", "GET"},
                            Route{"/debug/requests", "GET"},
                            Route{"/admin/reload", "POST"}}) {
    for (const char* method : {"GET", "POST", "PUT", "DELETE"}) {
      if (std::string(method) == route.method) continue;
      HttpRequest request;
      request.method = method;
      request.target = route.path;
      const HttpResponse response =
          http_request("127.0.0.1", server_->port(), request);
      EXPECT_EQ(response.status, 405) << method << ' ' << route.path;
      EXPECT_EQ(without_ids(response.body),
                std::string("{\"error\":\"invalid-argument\",\"field\":"
                            "\"method\",\"message\":\"") +
                    route.path + " takes " + route.method + "\"}")
          << method << ' ' << route.path;
    }
  }

  const HttpResponse empty_body = post_map("");
  EXPECT_EQ(empty_body.status, 400);
  EXPECT_NE(empty_body.body.find("\"field\":\"sequence\""), std::string::npos);

  const HttpResponse bad_param = post_map(queries_[0], "?top_x=banana");
  EXPECT_EQ(bad_param.status, 400);
  EXPECT_NE(bad_param.body.find("\"field\":\"top_x\""), std::string::npos);
  EXPECT_EQ(without_ids(bad_param.body),
            "{\"error\":\"invalid-argument\",\"field\":\"top_x\","
            "\"message\":\"not an unsigned integer: 'banana'\"}");

  // A value the request validation rejects names its code and field once,
  // in their own members, and gives the bare reason as the message.
  const HttpResponse zero_top_x = post_map(queries_[0], "?top_x=0");
  EXPECT_EQ(zero_top_x.status, 400);
  EXPECT_EQ(without_ids(zero_top_x.body),
            "{\"error\":\"invalid-argument\",\"field\":\"top_x\","
            "\"message\":\"top_x must be >= 1\"}");

  // Out-of-range values are rejected, never truncated or wrapped: 2^32 + 1
  // votes would cast to 1, and these budgets overflow admission + budget
  // (2^63 and up would wrap negative and silently mean "no deadline").
  for (const std::string& params :
       {std::string("?min_votes=4294967297"),
        std::string("?deadline_ms=10000000000000"),
        std::string("?deadline_ms=9223372036854775808")}) {
    const HttpResponse out_of_range = post_map(queries_[0], params);
    EXPECT_EQ(out_of_range.status, 400) << params;
    const std::string field = params.substr(1, params.find('=') - 1);
    EXPECT_NE(out_of_range.body.find("\"field\":\"" + field + "\""),
              std::string::npos)
        << out_of_range.body;
  }
  EXPECT_EQ(without_ids(post_map(queries_[0], "?min_votes=4294967297").body),
            "{\"error\":\"invalid-argument\",\"field\":\"min_votes\","
            "\"message\":\"out of range: '4294967297' (at most "
            "4294967295)\"}");
  EXPECT_EQ(
      without_ids(post_map(queries_[0], "?deadline_ms=1x").body),
      "{\"error\":\"invalid-argument\",\"field\":\"deadline_ms\","
      "\"message\":\"not an unsigned integer: '1x'\"}");
}

TEST_F(MappingServerTest, ExpiredDeadlineIsGatewayTimeout) {
  // A 100 ms stall at the cache probe outlasts the 1 ms budget, which
  // counts from handle() entry; the expiry is caught before the kernel.
  plan_.delay_at(util::FaultPlan::kAnyRank, "serve.cache", 1,
                 std::chrono::milliseconds(100));
  ServerConfig config;
  config.fault_plan = &plan_;
  start_server(config);

  ASSERT_EQ(post_map(queries_[0]).status, 200);  // cache probe 0: no fault
  const HttpResponse response = post_map(queries_[1], "?deadline_ms=1");
  EXPECT_EQ(response.status, 504);
  EXPECT_NE(response.body.find("\"error\":\"deadline-exceeded\""),
            std::string::npos);

  const auto snapshot = server_->registry().snapshot();
  const auto* expired = snapshot.find("serve.deadline.expired");
  ASSERT_NE(expired, nullptr);
  EXPECT_GE(expired->value, 1u);
}

TEST_F(MappingServerTest, FullAdmissionQueueShedsWith503RetryAfter) {
  // One worker held by a silent connection, one queued connection filling
  // the capacity-1 admission queue: the acceptor must shed the third. A
  // delay on the first read makes the hold observable (the delay counter
  // ticks once the worker has taken the silent connection).
  plan_.delay_at(util::FaultPlan::kAnyRank, "serve.read", 0,
                 std::chrono::milliseconds(500));
  ServerConfig config;
  config.workers = 1;
  config.queue_capacity = 1;
  config.io_timeout = std::chrono::milliseconds(200);
  config.retry_after_s = 7;
  config.fault_plan = &plan_;
  start_server(config);

  const auto counter = [&](const char* name) {
    const auto snapshot = server_->registry().snapshot();
    const auto* metric = snapshot.find(name);
    return metric == nullptr ? std::uint64_t{0} : metric->value;
  };
  const auto queue_level = [&] {
    const auto snapshot = server_->registry().snapshot();
    const auto* metric = snapshot.find("serve.queue.depth");
    return metric == nullptr ? std::int64_t{0} : metric->level;
  };
  const auto eventually = [](const auto& condition) {
    for (int i = 0; i < 2000 && !condition(); ++i) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    return condition();
  };
  const int holder = connect_raw(server_->port());
  ASSERT_GE(holder, 0);
  ASSERT_TRUE(
      eventually([&] { return counter("serve.chaos.injected.delay") >= 1; }));
  const int queued = connect_raw(server_->port());
  ASSERT_GE(queued, 0);
  ASSERT_TRUE(eventually([&] { return queue_level() == 1; }));

  const HttpResponse shed = post_map(queries_[0]);
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
  EXPECT_GE(counter("serve.http.shed"), 1u);
  ::close(holder);
  ::close(queued);
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

/// Many clients, mixed endpoints, four workers mapping concurrently — the
/// test the TSan configuration leans on for the serve layer's thread
/// safety. Every /map body must match the single-shot service answer.
TEST_F(MappingServerTest, ConcurrentClientsAllSucceed) {
  ServerConfig config;
  config.workers = 4;
  start_server(config);

  std::vector<std::string> expected;
  for (const std::string& query : queries_) {
    const MapServiceResponse answer =
        service_->map(MapServiceRequest{.sequence = query});
    expected.push_back(answer.mapped()
                           ? "{\"subject\":\"" + answer.hits[0].subject_name +
                                 "\",\"votes\":" +
                                 std::to_string(answer.hits[0].votes) + "}"
                           : std::string("\"mapped\":false"));
  }

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
            const std::size_t q =
                static_cast<std::size_t>(t + i) % queries_.size();
            const HttpResponse response = post_map(queries_[q]);
            if (response.status != 200 ||
                response.body.find(expected[q]) == std::string::npos) {
              failures.fetch_add(1);
            }
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

TEST_F(MappingServerTest, AbortDuringDrainStrandsNoAdmittedConnection) {
  // One worker, held by a stall on its first read while four more
  // connections queue behind it. stop() then closes the queue with all
  // four still admitted, and the third response aborts the worker: the
  // aborted request is answered 500, the worker restarts, and it serves
  // the rest of the drain.
  plan_.delay_at(util::FaultPlan::kAnyRank, "serve.read", 0,
                 std::chrono::milliseconds(400));
  plan_.abort_at(util::FaultPlan::kAnyRank, "serve.write", 2);
  ServerConfig config;
  config.workers = 1;
  config.fault_plan = &plan_;
  start_server(config);

  constexpr std::size_t kClients = 5;
  std::vector<int> statuses(kClients, 0);
  std::vector<std::thread> clients;
  for (std::size_t i = 0; i < kClients; ++i) {
    clients.emplace_back([&, i] {
      try {
        statuses[i] = post_map(queries_[i % queries_.size()]).status;
      } catch (const ClientError&) {
        statuses[i] = -1;
      }
    });
    // Admit in order, so the stalled connection is the first one.
    if (i == 0) std::this_thread::sleep_for(std::chrono::milliseconds(50));
  }
  const auto depth = [&] {
    return server_->registry().gauge("serve.queue.depth").value();
  };
  for (int i = 0; i < 2000 && depth() < 4; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  ASSERT_EQ(depth(), 4) << "the four later connections were not admitted";

  server_->stop();
  for (std::thread& client : clients) client.join();

  std::size_t ok = 0;
  std::size_t aborted = 0;
  for (const int status : statuses) {
    if (status == 200) ++ok;
    if (status == 500) ++aborted;
  }
  EXPECT_EQ(aborted, 1u);
  EXPECT_EQ(ok, kClients - 1);
  EXPECT_GE(server_->worker_restarts(), 1u);
}

}  // namespace
}  // namespace jem::serve
