// End-to-end request observability on a live loopback server: trace-context
// propagation (client log, server access log, flight record and response
// header all naming the same trace id), the Chrome-trace span tree, the
// /debug/requests flight endpoint, /metrics content negotiation, and the
// windowed SLO section of /healthz decaying after a load.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <map>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "core/dna.hpp"
#include "core/service.hpp"
#include "obs/json.hpp"
#include "obs/trace.hpp"
#include "obs/trace_context.hpp"
#include "serve/client.hpp"
#include "serve/server.hpp"
#include "util/log.hpp"
#include "util/prng.hpp"

namespace jem::serve {
namespace {

std::string random_dna(util::Xoshiro256ss& rng, std::size_t length) {
  std::string seq(length, 'A');
  for (char& c : seq) {
    c = core::code_base(static_cast<std::uint8_t>(rng.bounded(4)));
  }
  return seq;
}

class ServeObservabilityTest : public ::testing::Test {
 protected:
  void SetUp() override {
    util::Xoshiro256ss rng(321);
    genome_ = random_dna(rng, 30'000);
    io::SequenceSet subjects;
    for (int i = 0; i < 6; ++i) {
      subjects.add("contig_" + std::to_string(i),
                   genome_.substr(static_cast<std::size_t>(i) * 5000, 5000));
    }
    const core::ServiceConfig config = core::ServiceConfig::make()
                                           .k(16)
                                           .window(20)
                                           .trials(16)
                                           .segment_length(800)
                                           .seed(11)
                                           .build();
    service_.emplace(std::move(subjects), config);
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

  [[nodiscard]] HttpResponse get(const std::string& target,
                                 std::vector<std::pair<std::string,
                                                       std::string>>
                                     headers = {}) {
    HttpRequest request;
    request.method = "GET";
    request.target = target;
    request.headers = std::move(headers);
    return http_request("127.0.0.1", server_->port(), request);
  }

  std::string genome_;
  std::optional<core::MappingService> service_;
  std::optional<MappingServer> server_;
  std::vector<std::string> queries_;
};

/// Extracts `"key":{...}` (one nesting level) from a JSON body.
std::string json_section(const std::string& body, const std::string& key) {
  const std::size_t at = body.find("\"" + key + "\":{");
  if (at == std::string::npos) return {};
  const std::size_t open = body.find('{', at);
  const std::size_t close = body.find('}', open);
  return body.substr(open, close - open + 1);
}

// The acceptance test of the tentpole: ONE trace id in the client's debug
// log, the server's access log, the flight-recorder record, and the
// x-jem-request-id response header.
TEST_F(ServeObservabilityTest, TraceIdFlowsThroughClientServerFlightAndHeader) {
  start_server();
  const util::LogLevel saved = util::Log::level();
  util::Log::set_level(util::LogLevel::kDebug);
  (void)util::Log::begin_capture();

  Client client("127.0.0.1", server_->port());
  const HttpResponse response = client.post("/map?top_x=1", queries_[0]);
  const std::string captured = util::Log::end_capture();
  util::Log::set_level(saved);

  ASSERT_EQ(response.status, 200);
  const obs::TraceContext trace = client.last_trace();
  ASSERT_EQ(trace.trace_id.size(), 32u);

  // Client log line.
  EXPECT_NE(captured.find("serve client: POST /map?top_x=1 200 trace=" +
                          trace.trace_id),
            std::string::npos)
      << captured;
  // Server access log line (same trace, server-minted request id).
  EXPECT_NE(captured.find("serve: POST /map 200 trace=" + trace.trace_id),
            std::string::npos)
      << captured;

  // Response header: <trace_id>-<request_id>, trace id preserved.
  const std::string* echoed = response.header("x-jem-request-id");
  ASSERT_NE(echoed, nullptr);
  EXPECT_EQ(echoed->substr(0, 32), trace.trace_id);
  ASSERT_EQ(echoed->size(), 32u + 1 + 16u);
  const std::string request_id = echoed->substr(33);

  // Flight record carries both ids.
  const HttpResponse flight = get("/debug/requests");
  ASSERT_EQ(flight.status, 200);
  EXPECT_NE(flight.body.find("\"trace_id\":\"" + trace.trace_id + "\""),
            std::string::npos)
      << flight.body;
  EXPECT_NE(flight.body.find("\"request_id\":\"" + request_id + "\""),
            std::string::npos);
}

TEST_F(ServeObservabilityTest, ChromeTraceExportShowsOneConnectedSpanTree) {
  obs::Tracer tracer;
  ServerConfig config;
  config.tracer = &tracer;
  start_server(config);

  Client client("127.0.0.1", server_->port());
  client.set_tracer(&tracer);
  const HttpResponse response = client.post("/map?top_x=1", queries_[0]);
  ASSERT_EQ(response.status, 200);
  const std::string id = client.last_trace().trace_id;

  const obs::TraceSnapshot snapshot = tracer.snapshot();
  // Every hop of the request shows up, tied together by the trace id in the
  // span names: client -> server request -> map -> serialize.
  std::map<std::string, int> seen;
  for (const auto& thread : snapshot.threads) {
    for (const auto& event : thread.events) {
      ++seen[event.name];
    }
  }
  for (const std::string& name :
       {"client.request[" + id + "]", "serve.request[" + id + "]",
        "serve.map[" + id + "]", "serve.serialize[" + id + "]"}) {
    EXPECT_EQ(seen.count(name), 1u) << "missing span " << name;
  }

  // The export is well-formed Chrome JSON with pair-matched B/E per track.
  const std::string chrome = snapshot.to_chrome_json();
  const obs::json::Value doc = obs::json::parse(chrome);
  const obs::json::Value* events = doc.find("traceEvents");
  ASSERT_NE(events, nullptr);
  std::map<double, int> depth;
  for (const obs::json::Value& event : events->array) {
    const obs::json::Value* ph = event.find("ph");
    ASSERT_NE(ph, nullptr);
    if (ph->str == "B") ++depth[event.find("tid")->number];
    if (ph->str == "E") {
      ASSERT_GE(--depth[event.find("tid")->number], 0);
    }
  }
  for (const auto& [tid, open] : depth) EXPECT_EQ(open, 0) << "tid " << tid;
}

TEST_F(ServeObservabilityTest, ForwardedTraceparentIsHonored) {
  start_server();
  const std::string parent_trace = "0af7651916cd43dd8448eb211c80319c";
  HttpRequest request;
  request.method = "POST";
  request.target = "/map?top_x=1";
  request.body = queries_[0];
  request.headers.emplace_back(
      "traceparent", "00-" + parent_trace + "-b7ad6b7169203331-01");
  const HttpResponse response =
      http_request("127.0.0.1", server_->port(), request);
  ASSERT_EQ(response.status, 200);
  const std::string* echoed = response.header("x-jem-request-id");
  ASSERT_NE(echoed, nullptr);
  // Same trace, fresh server-side span id.
  EXPECT_EQ(echoed->substr(0, 32), parent_trace);
  EXPECT_NE(echoed->substr(33), "b7ad6b7169203331");
}

TEST_F(ServeObservabilityTest, ErrorBodiesCarryTraceAndRequestIds) {
  start_server();
  const HttpResponse response = get("/no/such/endpoint");
  EXPECT_EQ(response.status, 404);
  const std::string* echoed = response.header("x-jem-request-id");
  ASSERT_NE(echoed, nullptr);
  const std::string trace_id = echoed->substr(0, 32);
  const std::string request_id = echoed->substr(33);
  EXPECT_NE(response.body.find("\"trace_id\":\"" + trace_id + "\""),
            std::string::npos)
      << response.body;
  EXPECT_NE(response.body.find("\"request_id\":\"" + request_id + "\""),
            std::string::npos);
}

TEST_F(ServeObservabilityTest, FlightEndpointIsNewestFirstAndFilters) {
  start_server();
  for (int i = 0; i < 4; ++i) {
    (void)http_post("127.0.0.1", server_->port(), "/map?top_x=1",
                    queries_[static_cast<std::size_t>(i) % queries_.size()]);
  }
  (void)get("/no/such/endpoint");  // one 404 record

  const HttpResponse all = get("/debug/requests");
  ASSERT_EQ(all.status, 200);
  const obs::json::Value doc = obs::json::parse(all.body);
  const obs::json::Value* requests = doc.find("requests");
  ASSERT_NE(requests, nullptr);
  ASSERT_GE(requests->array.size(), 5u);
  double previous = -1.0;
  for (const obs::json::Value& record : requests->array) {
    const double seq = record.find("seq")->number;
    if (previous >= 0) {
      EXPECT_LT(seq, previous);  // newest first
    }
    previous = seq;
  }

  // Status filter: only the 404.
  const HttpResponse not_found = get("/debug/requests?status=404");
  const obs::json::Value filtered = obs::json::parse(not_found.body);
  ASSERT_GE(filtered.find("requests")->array.size(), 1u);
  for (const obs::json::Value& record : filtered.find("requests")->array) {
    EXPECT_EQ(record.find("status")->number, 404.0);
  }

  // Limit caps the dump.
  const HttpResponse limited = get("/debug/requests?limit=2");
  EXPECT_EQ(obs::json::parse(limited.body).find("requests")->array.size(), 2u);

  // A latency floor nothing reaches filters everything out.
  const HttpResponse slow = get("/debug/requests?min_latency_ms=600000");
  EXPECT_EQ(obs::json::parse(slow.body).find("requests")->array.size(), 0u);

  // Garbage parameters are a structured 400 naming the field. So are
  // out-of-range ones, which must never wrap: 2^32 + 400 would cast to a
  // status of 400, and 18446744073710 ms overflows the nanosecond floor.
  for (const std::string& params :
       {std::string("limit=banana"), std::string("status=4294967696"),
        std::string("min_latency_ms=18446744073710")}) {
    const HttpResponse bad = get("/debug/requests?" + params);
    EXPECT_EQ(bad.status, 400) << params;
    const std::string field = params.substr(0, params.find('='));
    EXPECT_NE(bad.body.find("\"field\":\"" + field + "\""),
              std::string::npos)
        << bad.body;
  }
}

TEST_F(ServeObservabilityTest, FlightRecorderCanBeDisabled) {
  ServerConfig config;
  config.flight_recorder_size = 0;
  start_server(config);
  EXPECT_EQ(get("/debug/requests").status, 404);
  EXPECT_TRUE(server_->flight_recorder_text().empty());
}

TEST_F(ServeObservabilityTest, MetricsNegotiateOpenMetricsAndKeepJsonDefault) {
  start_server();
  (void)http_post("127.0.0.1", server_->port(), "/map?top_x=1", queries_[0]);

  // Default stays the JSON snapshot.
  const HttpResponse json = get("/metrics");
  ASSERT_EQ(json.status, 200);
  EXPECT_EQ(json.content_type, "application/json");
  EXPECT_EQ(json.body.rfind("{\"metrics\":[", 0), 0u);

  // Accept negotiation flips to the OpenMetrics exposition.
  const HttpResponse om =
      get("/metrics", {{"accept", "application/openmetrics-text"}});
  ASSERT_EQ(om.status, 200);
  EXPECT_EQ(om.content_type,
            "application/openmetrics-text; version=1.0.0; charset=utf-8");
  EXPECT_EQ(om.body.rfind("# TYPE ", 0), 0u);
  EXPECT_NE(om.body.find("jem_serve_http_requests_total"), std::string::npos);
  EXPECT_NE(om.body.find("jem_serve_endpoint_map_latency_ns_bucket"),
            std::string::npos);
  EXPECT_NE(om.body.find("jem_serve_slo_latency_ns{window=\"10s\","
                         "quantile=\"0.99\"}"),
            std::string::npos);
  ASSERT_GE(om.body.size(), 6u);
  EXPECT_EQ(om.body.substr(om.body.size() - 6), "# EOF\n");

  // ?format=openmetrics is the curl-friendly alias.
  const HttpResponse aliased = get("/metrics?format=openmetrics");
  EXPECT_EQ(aliased.body.rfind("# TYPE ", 0), 0u);
}

TEST_F(ServeObservabilityTest, HealthzWindowedSloDecaysWhileCumulativeKeeps) {
  ServerConfig config;
  config.slo_frame = std::chrono::milliseconds(50);  // "10s" tier = 500 ms
  start_server(config);
  for (int i = 0; i < 4; ++i) {
    (void)http_post("127.0.0.1", server_->port(), "/map?top_x=1",
                    queries_[static_cast<std::size_t>(i) % queries_.size()]);
  }

  const HttpResponse during = get("/healthz");
  ASSERT_EQ(during.status, 200);
  const std::string tier_during = json_section(during.body, "10s");
  EXPECT_NE(tier_during.find("\"requests\":4"), std::string::npos)
      << during.body;
  EXPECT_EQ(tier_during.find("\"p50_ms\":0.000"), std::string::npos);

  // Let the spike age past the shrunken 10s window (plus slack); the
  // windowed tier empties while the cumulative section never forgets.
  std::this_thread::sleep_for(std::chrono::milliseconds(1200));
  const HttpResponse after = get("/healthz");
  const std::string tier_after = json_section(after.body, "10s");
  EXPECT_NE(tier_after.find("\"requests\":0"), std::string::npos)
      << after.body;
  EXPECT_NE(tier_after.find("\"p50_ms\":0.000"), std::string::npos);
  const std::string cumulative = json_section(after.body, "cumulative");
  EXPECT_NE(cumulative.find("\"requests\":4"), std::string::npos)
      << after.body;
  EXPECT_EQ(cumulative.find("\"p50_ms\":0.000"), std::string::npos);
}

TEST_F(ServeObservabilityTest, SlowRequestExemplarIsLoggedAboveThreshold) {
  ServerConfig config;
  config.slow_threshold = std::chrono::microseconds(0);
  start_server(config);
  // Threshold 0 disables exemplars entirely.
  (void)util::Log::begin_capture();
  (void)http_post("127.0.0.1", server_->port(), "/map?top_x=1", queries_[0]);
  std::string captured = util::Log::end_capture();
  EXPECT_EQ(captured.find("slow request"), std::string::npos);

  server_.reset();
  ServerConfig armed;
  armed.slow_threshold = std::chrono::microseconds(1);  // everything is slow
  start_server(armed);
  (void)util::Log::begin_capture();
  const HttpResponse response =
      http_post("127.0.0.1", server_->port(), "/map?top_x=1", queries_[1]);
  captured = util::Log::end_capture();
  ASSERT_EQ(response.status, 200);
  EXPECT_NE(captured.find("serve: slow request trace="), std::string::npos)
      << captured;
  EXPECT_NE(captured.find("queue_wait_us="), std::string::npos);
  EXPECT_NE(captured.find("map_us="), std::string::npos);
  EXPECT_NE(captured.find("serialize_us="), std::string::npos);
}

// TSan target: concurrent /map load with concurrent trace exports must stay
// race-free and every export must be a well-formed, pair-matched trace.
TEST_F(ServeObservabilityTest, ConcurrentTraceExportUnderLoad) {
  obs::Tracer tracer;
  ServerConfig config;
  config.tracer = &tracer;
  start_server(config);

  constexpr int kThreads = 4;
  constexpr int kPerThread = 12;
  std::atomic<int> failures{0};
  std::vector<std::thread> pool;
  pool.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    pool.emplace_back([&, t] {
      for (int i = 0; i < kPerThread; ++i) {
        try {
          const HttpResponse response = http_post(
              "127.0.0.1", server_->port(), "/map?top_x=1",
              queries_[static_cast<std::size_t>(t * kPerThread + i) %
                       queries_.size()]);
          if (response.status != 200) failures.fetch_add(1);
        } catch (const ClientError&) {
          failures.fetch_add(1);
        }
      }
    });
  }

  // Export repeatedly while the load runs.
  std::string last_export;
  for (int round = 0; round < 8; ++round) {
    last_export = tracer.snapshot().to_chrome_json();
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  for (std::thread& thread : pool) thread.join();
  last_export = tracer.snapshot().to_chrome_json();
  EXPECT_EQ(failures.load(), 0);

  // The final export is parseable with matched B/E pairs per track, and
  // each request's span tree shares one trace id.
  const obs::json::Value doc = obs::json::parse(last_export);
  const obs::json::Value* events = doc.find("traceEvents");
  ASSERT_NE(events, nullptr);
  std::map<double, int> depth;
  std::map<std::string, int> by_trace;  // spans seen per trace id
  for (const obs::json::Value& event : events->array) {
    const obs::json::Value* ph = event.find("ph");
    if (ph == nullptr) continue;
    if (ph->str == "B") {
      ++depth[event.find("tid")->number];
      const obs::json::Value* name = event.find("name");
      const std::size_t open = name->str.find('[');
      const std::size_t close = name->str.find(']');
      if (open != std::string::npos && close == open + 33) {
        ++by_trace[name->str.substr(open + 1, 32)];
      }
    } else if (ph->str == "E") {
      ASSERT_GE(--depth[event.find("tid")->number], 0);
    }
  }
  for (const auto& [tid, open] : depth) EXPECT_EQ(open, 0) << "tid " << tid;
  // Every completed request leaves its whole tree under one id: request,
  // map, serialize (client spans not in play here).
  int full_trees = 0;
  for (const auto& [id, spans] : by_trace) {
    if (spans >= 3) ++full_trees;
  }
  EXPECT_GT(full_trees, 0) << last_export.substr(0, 2000);
}

}  // namespace
}  // namespace jem::serve
