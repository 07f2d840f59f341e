// The serve layer's probe in the traced runs (README.md, "Per-layer
// metrics"): an in-process MappingServer on the JEMIDX1 artifact, driven
// open-loop through serve::http_post. Every request is counted, every /map
// response is checked against MappingService::map on the same bytes, and the
// samples are joined to the server's flight records by x-jem-request-id.
#include <algorithm>
#include <atomic>
#include <numeric>
#include <stdexcept>
#include <thread>
#include <unordered_map>

#include "bench.hpp"
#include "obs/json.hpp"
#include "serve/client.hpp"
#include "serve/server.hpp"
#include "util/prng.hpp"
#include "util/zipf.hpp"

namespace jembench {
namespace {

namespace core = jem::core;
namespace io = jem::io;
namespace json = jem::obs::json;
namespace serve = jem::serve;

constexpr const char* kHost = "127.0.0.1";
constexpr std::size_t kMaxLoadThreads = 4;  // nproc of the reference host
constexpr std::size_t kServerWorkers = 2;
constexpr std::size_t kProbeRequests = 2000;  // 2 s at 1000/s
constexpr double kProbeRate = 1000.0;
constexpr double kReloadEvery = 1.0;  // s between /admin/reload posts
constexpr std::chrono::milliseconds kReloadTimeout{60000};

/// One scheduled request: due `due_ns` after the run starts; `body` indexes
/// the /map bodies, or is kReload for a POST /admin/reload.
struct Request {
  std::int64_t due_ns = 0;
  std::int64_t body = 0;
};
constexpr std::int64_t kReload = -1;

/// What one request saw. Times are relative to the run start.
struct Sample {
  std::int64_t sent_ns = 0;
  std::int64_t done_ns = 0;
  int status = 0;          // 0 = transport error
  std::string request_id;  // x-jem-request-id
  std::string body;        // /map response body (or the transport error)
};

std::int64_t ns_between(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(to - from)
      .count();
}

/// Seeded Fisher-Yates permutation of 0 .. n-1.
std::vector<std::int64_t> permutation(std::size_t n, std::uint64_t seed) {
  std::vector<std::int64_t> perm(n);
  std::iota(perm.begin(), perm.end(), 0);
  jem::util::Xoshiro256ss rng(seed);
  for (std::size_t i = n; i > 1; --i) std::swap(perm[i - 1], perm[rng.bounded(i)]);
  return perm;
}

const json::Value& member(const json::Value& object, std::string_view key) {
  const json::Value* value = object.find(key);
  if (value == nullptr) {
    throw std::runtime_error("JSON member '" + std::string(key) + "' missing");
  }
  return *value;
}

/// One metric of a /metrics JSON snapshot.
const json::Value& metric_named(const json::Value& snapshot,
                                std::string_view name) {
  for (const json::Value& metric : member(snapshot, "metrics").array) {
    if (member(metric, "name").str == name) return metric;
  }
  throw std::runtime_error("/metrics has no '" + std::string(name) + "'");
}

/// True when a /map response body carries exactly `expected`'s result.
bool same_result(const std::string& body,
                 const core::MapServiceResponse& expected) {
  try {
    const json::Value doc = json::parse(body);
    const std::vector<json::Value>& hits = member(doc, "hits").array;
    if (member(doc, "mapped").boolean != expected.mapped() ||
        member(doc, "trials").number != expected.trials ||
        hits.size() != expected.hits.size()) {
      return false;
    }
    for (std::size_t i = 0; i < hits.size(); ++i) {
      if (member(hits[i], "subject").str != expected.hits[i].subject_name ||
          member(hits[i], "votes").number != expected.hits[i].votes) {
        return false;
      }
    }
    return expected.ok();
  } catch (const std::exception&) {
    return false;
  }
}

/// Requests i = 0..order.size()-1 due at i / rate seconds with body
/// order[i], plus a reload every `reload_every_s` seconds, the first half an
/// interval in.
std::vector<Request> make_plan(const std::vector<std::int64_t>& order,
                               double rate, double reload_every_s) {
  std::vector<Request> plan;
  plan.reserve(order.size());
  for (std::size_t i = 0; i < order.size(); ++i) {
    plan.push_back(
        {static_cast<std::int64_t>(1e9 * static_cast<double>(i) / rate),
         order[i]});
  }
  const double span_s = static_cast<double>(order.size()) / rate;
  for (double t = reload_every_s / 2; t < span_s; t += reload_every_s) {
    plan.push_back({static_cast<std::int64_t>(1e9 * t), kReload});
  }
  std::stable_sort(plan.begin(), plan.end(),
                   [](const Request& a, const Request& b) {
                     return a.due_ns < b.due_ns;
                   });
  return plan;
}

/// `count` draws of Zipf(s = 1) popularity over `population` bodies whose
/// ranks are a seeded permutation.
std::vector<std::int64_t> zipf_order(std::size_t population, std::size_t count,
                                     std::uint64_t seed) {
  const std::vector<std::int64_t> by_rank =
      permutation(population, jem::util::mix64(seed ^ 0x7a));
  jem::util::Xoshiro256ss rng(jem::util::mix64(seed ^ 0x7b));
  jem::util::zipf_distribution<std::uint64_t> zipf(population, 1.0);
  std::vector<std::int64_t> order(count);
  for (std::int64_t& body : order) body = by_rank[zipf(rng) - 1];
  return order;
}

/// Runs `plan` against 127.0.0.1:`port` from at most four threads through
/// serve::http_post; each request waits for its due time, whatever earlier
/// requests did.
std::vector<Sample> run_open_loop(std::uint16_t port,
                                  const std::vector<std::string>& bodies,
                                  const std::vector<Request>& plan) {
  std::vector<Sample> samples(plan.size());
  std::atomic<std::size_t> next{0};
  const Clock::time_point start = Clock::now() + std::chrono::milliseconds(5);
  // Each thread takes the next request in schedule order and waits for its
  // due time; every sample is written by exactly one thread.
  const auto drive = [&] {
    for (std::size_t i = next++; i < plan.size(); i = next++) {
      const Request& request = plan[i];
      Sample& sample = samples[i];
      std::this_thread::sleep_until(start +
                                    std::chrono::nanoseconds(request.due_ns));
      sample.sent_ns = ns_between(start, Clock::now());
      try {
        const serve::HttpResponse response =
            request.body == kReload
                ? serve::http_post(kHost, port, "/admin/reload", "",
                                   kReloadTimeout)
                : serve::http_post(kHost, port, "/map",
                                   bodies[static_cast<std::size_t>(
                                       request.body)]);
        sample.status = response.status;
        if (request.body != kReload) sample.body = response.body;
        if (const std::string* id = response.header("x-jem-request-id")) {
          sample.request_id = *id;
        }
      } catch (const std::exception& error) {
        sample.status = 0;
        sample.body = error.what();
      }
      sample.done_ns = ns_between(start, Clock::now());
    }
  };
  const std::size_t threads = std::clamp<std::size_t>(
      std::thread::hardware_concurrency(), 1, kMaxLoadThreads);
  {
    std::vector<std::jthread> pool;
    for (std::size_t t = 0; t < threads; ++t) pool.emplace_back(drive);
  }
  return samples;
}

/// serve.* layers and gen.lag_p90_ms: joins the 200 /map samples to the
/// server's flight records by x-jem-request-id and reads /metrics. Only
/// called when every request of the plan was answered 200.
void put_serve_layers(std::uint16_t port, const std::vector<Request>& plan,
                      const std::vector<Sample>& samples, Metrics& out) {
  // Flight records by "<trace_id>-<request_id>", the x-jem-request-id echo.
  struct Layers {
    double queue_wait_ns = 0.0;
    double map_ns = 0.0;
    double serialize_ns = 0.0;
    double total_ns = 0.0;
  };
  const serve::HttpResponse flight = serve::http_get(kHost, port, "/debug/requests");
  if (flight.status != 200) {
    throw std::runtime_error("GET /debug/requests: status " +
                             std::to_string(flight.status));
  }
  std::unordered_map<std::string, Layers> records;
  const json::Value dump = json::parse(flight.body);
  for (const json::Value& record : member(dump, "requests").array) {
    records[member(record, "trace_id").str + "-" +
            member(record, "request_id").str] = {
        member(record, "queue_wait_ns").number, member(record, "map_ns").number,
        member(record, "serialize_ns").number,
        member(record, "total_ns").number};
  }

  Layers sum;
  double transport_ns = 0.0;
  std::size_t joined = 0;
  std::vector<double> reload_ms;
  std::vector<double> lag_ms;
  for (std::size_t i = 0; i < plan.size(); ++i) {
    const Sample& sample = samples[i];
    lag_ms.push_back(static_cast<double>(sample.sent_ns - plan[i].due_ns) /
                     1e6);
    const double round_trip_ns =
        static_cast<double>(sample.done_ns - sample.sent_ns);
    if (plan[i].body == kReload) {
      reload_ms.push_back(round_trip_ns / 1e6);
      continue;
    }
    const auto it = records.find(sample.request_id);
    if (it == records.end()) continue;
    const Layers& layers = it->second;
    sum.queue_wait_ns += layers.queue_wait_ns;
    sum.map_ns += layers.map_ns;
    sum.serialize_ns += layers.serialize_ns;
    sum.total_ns += layers.total_ns;
    transport_ns += round_trip_ns - layers.total_ns;
    ++joined;
  }
  if (joined == 0) {
    throw std::runtime_error("no /map response joined a flight record");
  }
  if (reload_ms.empty()) throw std::logic_error("the plan has no reload");
  const double to_us = 1e3 * static_cast<double>(joined);
  out.set("serve.queue_wait_us", sum.queue_wait_ns / to_us, "us");
  out.set("serve.map_us", sum.map_ns / to_us, "us");
  out.set("serve.serialize_us", sum.serialize_ns / to_us, "us");
  out.set("serve.handler_other_us",
          (sum.total_ns - sum.queue_wait_ns - sum.map_ns - sum.serialize_ns) /
              to_us,
          "us");
  // A remainder, not a span: client round trip minus the server's total.
  out.set("serve.transport_us", transport_ns / to_us, "us");

  const json::Value snapshot =
      json::parse(serve::http_get(kHost, port, "/metrics").body);
  const json::Value& batch = metric_named(snapshot, "serve.batch.size");
  out.set("serve.batch.mean_size",
          member(batch, "sum").number /
              std::max(1.0, member(batch, "count").number),
          "count");
  const double hits =
      member(metric_named(snapshot, "serve.cache.hits"), "value").number;
  const double misses =
      member(metric_named(snapshot, "serve.cache.misses"), "value").number;
  out.set("serve.cache.hit_ratio", hits / std::max(1.0, hits + misses),
          "ratio");
  out.set("serve.shed",
          member(metric_named(snapshot, "serve.http.shed"), "value").number,
          "count");
  out.set("serve.reload_ms", median(std::move(reload_ms)), "ms");
  out.set("gen.lag_p90_ms", quantile(std::move(lag_ms), 0.9), "ms");
}

}  // namespace

ProbeCounts probe_serve(const io::SequenceSet& subjects,
                        const std::string& artifact,
                        const std::vector<std::string>& bodies,
                        std::uint64_t seed, Metrics& out) {
  const core::MappingService service =
      core::MappingService::from_index(artifact, subjects, service_config());
  if (!service.load_report().loaded_from_artifact) {
    throw std::runtime_error("serve probe: artifact rejected: " +
                             service.load_report().rejection);
  }
  serve::ServerConfig config;
  config.workers = kServerWorkers;
  config.flight_recorder_size = kProbeRequests + 64;
  config.reload_index_path = artifact;
  serve::MappingServer server(service, config);
  server.start();
  const std::vector<Request> plan = make_plan(
      zipf_order(bodies.size(), kProbeRequests, seed), kProbeRate,
      kReloadEvery);
  const std::vector<Sample> samples = run_open_loop(server.port(), bodies, plan);

  // Every request must be answered 200, and every /map answer must equal
  // the service's own answer on the same bytes.
  ProbeCounts counts;
  std::unordered_map<std::int64_t, core::MapServiceResponse> expected;
  for (std::size_t i = 0; i < plan.size(); ++i) {
    ++counts.attempted;
    if (samples[i].status != 200) {
      ++counts.failed;
      continue;
    }
    const std::int64_t body = plan[i].body;
    if (body == kReload) continue;
    auto it = expected.find(body);
    if (it == expected.end()) {
      core::MapServiceRequest request;
      request.sequence = bodies[static_cast<std::size_t>(body)];
      it = expected.emplace(body, service.map(request)).first;
    }
    if (!same_result(samples[i].body, it->second)) counts.correct = false;
  }
  if (counts.failed == 0) put_serve_layers(server.port(), plan, samples, out);
  server.stop();
  return counts;
}

}  // namespace jembench
