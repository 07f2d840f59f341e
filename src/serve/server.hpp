// MappingServer — the always-on mapping service (docs/serve.md): a
// long-lived process that loads the frozen index once (via MappingService)
// and serves mapping requests over a local HTTP/1.1 socket.
//
// Pipeline: one acceptor hands connections to N workers through a bounded
// admission queue; each worker parses, routes and answers its connection.
//
//   acceptor thread ──try-push──► admission queue ──► worker threads
//        │ (full? shed: 503 + Retry-After)               │ parse + route
//        ▼                                               ▼
//   connections never stall the listener         /map: cache probe, then
//                                                MappingService::map on
//                                                the worker's own scratch
//
// Map on the worker: the query phase maps each segment on its own with
// per-thread counters (the paper's S4), so a worker calls MappingService::map
// directly with a core::MapScratch it made at thread start and reuses
// across requests and reloads (a reload keeps the subject set, so the
// scratch size never changes). Nothing queues between parse and map.
//
// Admission control: the accept queue is a util::BoundedQueue; a full queue
// sheds the connection immediately with `503 Service Unavailable` and a
// `Retry-After` header — overload degrades to fast rejections, never to an
// unbounded backlog or a stalled accept loop.
//
// Deadlines: every /map request carries an absolute expiry (its
// `deadline_ms` or the server default), measured from handle() entry.
// Expiry is checked before the (uninterruptible) map kernel runs and
// surfaces as a structured `504` JSON body — the HTTP projection of
// kDeadlineExceeded. A budget above kMaxDeadline is a 400.
//
// Caching: responses for repeated (sequence, top_x, min_votes) keys come
// from an LruCache keyed by the full composite key (digest picks the
// bucket, byte-compare confirms — collision-safe).
//
// Fault injection (docs/robustness.md): when ServerConfig::fault_plan is
// set, the pipeline queries a util::FaultInjector at four named sites —
// serve.accept, serve.read, serve.write, serve.cache — mapping the plan's
// delay/drop/abort taxonomy onto network failure modes: injected latency,
// connection resets, truncated responses, cache bypasses and worker
// aborts. Every decision is keyed by (site, invocation) so the same seed
// replays the same schedule.
//
// Worker restarts: a worker whose request aborts (injected abort or a
// genuine bug) answers the in-flight request with a structured 500, then
// restarts in place on a fresh scratch and keeps popping connections, so
// an abort never strands an admitted connection, not even during stop()'s
// drain. /healthz reports the restart count.
//
// Hot swap: reload_index() (HTTP: POST /admin/reload; CLI: SIGHUP) loads a
// new JEMIDX1 artifact in the background, validates it against the running
// params fingerprint and subject set (core::index_serde's structured
// errors), then atomically publishes a new MappingService epoch behind a
// shared_ptr. In-flight requests finish on the index they started with;
// the response cache is invalidated only after a successful swap. A
// corrupt or mismatched artifact leaves the old index serving and surfaces
// the ArtifactError text — zero downtime either way.
//
// Endpoints (one route table; a known path sent the wrong method is a 405):
//   POST /map            body = query bases; ?top_x=&min_votes=&deadline_ms=
//   GET  /healthz        liveness + provenance + windowed SLO percentiles
//   GET  /metrics        JSON by default; OpenMetrics text under
//                        `Accept: application/openmetrics-text`
//   GET  /debug/requests flight-recorder ring (newest-first JSON;
//                        ?status=&min_latency_ms=&limit=)
//   POST /admin/reload   hot-swap the index (?path= overrides the default)
//
// Observability (docs/observability.md): per-endpoint latency histograms,
// queue-depth and cache gauges, shed/deadline/reject counters, chaos
// tallies, the worker restart count and the index epoch in the
// registry; per-request trace propagation (W3C `traceparent` in,
// `x-jem-request-id` out, ids stamped on every log line, error body and
// tracer span); a flight-recorder ring of per-request timing records; and
// sliding-window latency/error/shed SLOs behind /healthz and the
// OpenMetrics exposition.
//
// Sources: server.cpp (transport, lifecycle, fault sites), router.cpp
// (route table, query parameters, /map), ops.cpp (the other endpoints).
#pragma once

#include <array>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <stdexcept>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "core/service.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "obs/trace_context.hpp"
#include "obs/window.hpp"
#include "serve/flight_recorder.hpp"
#include "serve/http.hpp"
#include "serve/lru_cache.hpp"
#include "util/bounded_queue.hpp"
#include "util/fault_plan.hpp"
#include "util/log.hpp"

namespace jem::serve {

/// Fatal server-lifecycle failure (bind/listen/thread start). Per-request
/// conditions never throw this — they become HTTP status codes.
class ServeError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

struct ServerConfig {
  std::string host = "127.0.0.1";
  std::uint16_t port = 0;  // 0 = ephemeral (read the bound port via port())

  std::size_t workers = 4;           // connection-handling threads
  std::size_t queue_capacity = 64;   // admission (accepted-connection) queue

  /// Applied to /map requests that carry no deadline_ms. zero = none; at
  /// most MappingServer::kMaxDeadline.
  std::chrono::milliseconds default_deadline{0};

  /// Socket receive/send timeout — a stalled client cannot pin a worker.
  std::chrono::milliseconds io_timeout{5000};

  std::size_t cache_capacity = 1024;  // LRU entries; 0 disables the cache
  int retry_after_s = 1;              // Retry-After hint on 503 sheds

  /// Metrics registry the server publishes to and /metrics serves. Null =
  /// the server owns a private registry.
  obs::Registry* metrics = nullptr;

  /// Span tracer for per-request span trees (client/request/map/serialize,
  /// all tagged with the request's trace id). Null = no tracing; the
  /// request path then skips every span allocation.
  obs::Tracer* tracer = nullptr;

  /// Flight-recorder ring capacity (per-request records behind
  /// GET /debug/requests). 0 disables the recorder and the endpoint.
  std::size_t flight_recorder_size = 256;

  /// Requests slower than this are logged as slow-request exemplars with
  /// their full span breakdown (map/serialize). 0 = disabled.
  /// Microsecond granularity so tests can arm it below real map latency.
  std::chrono::microseconds slow_threshold{0};

  /// Aging granularity of the windowed SLO metrics: /healthz's "10s"/"1m"/
  /// "5m" tiers cover 10/60/300 frames of this width. The production
  /// default (1 s) makes the labels literal; tests shrink it to script
  /// decay quickly.
  std::chrono::milliseconds slo_frame{1000};

  /// Deterministic network chaos: when set (and non-empty), the serve.*
  /// fault sites consult this plan. Not owned; must outlive the server.
  const util::FaultPlan* fault_plan = nullptr;

  /// Default artifact path for /admin/reload without ?path= and for the
  /// CLI's SIGHUP handler. Empty = reload requires an explicit path.
  std::string reload_index_path;
};

class MappingServer {
 public:
  using Clock = core::MappingService::Clock;

  /// Largest /map deadline budget (`deadline_ms`, --deadline-ms): half the
  /// clock's range, so admission time + budget cannot overflow. Larger
  /// values are rejected, never wrapped.
  static constexpr std::chrono::milliseconds kMaxDeadline =
      std::chrono::duration_cast<std::chrono::milliseconds>(
          Clock::duration::max() / 2);

  /// Non-owning: the service must outlive the server. Hot-swap is still
  /// available — the original service simply remains owned by the caller
  /// while new epochs are owned by the server.
  MappingServer(const core::MappingService& service, ServerConfig config);

  /// Owning (shared): the server participates in the service's lifetime,
  /// the natural shape when reload_index() will retire epochs.
  MappingServer(std::shared_ptr<const core::MappingService> service,
                ServerConfig config);
  ~MappingServer();

  MappingServer(const MappingServer&) = delete;
  MappingServer& operator=(const MappingServer&) = delete;

  /// Binds, listens and starts the acceptor and worker threads. Throws
  /// ServeError on bind/listen failure. Idempotent once running.
  void start();

  /// Graceful drain: stop accepting, serve every admitted connection (a
  /// worker that aborts mid-drain restarts and keeps draining), join all
  /// threads. Idempotent; also run by ~MappingServer.
  void stop();

  [[nodiscard]] bool running() const noexcept {
    return running_.load(std::memory_order_acquire);
  }

  /// Bound port (after start(); the ephemeral port when config.port == 0).
  [[nodiscard]] std::uint16_t port() const noexcept { return port_; }

  /// The registry /metrics serves (the configured one or the private one).
  [[nodiscard]] obs::Registry& registry() noexcept { return *registry_; }

  /// The routing core, socket-free: exactly what a worker runs after
  /// parsing a request, on a scratch made for this call. Needs no start().
  /// Exposed for in-process callers and tests.
  [[nodiscard]] HttpResponse handle(const HttpRequest& request);

  /// Result of one hot-swap attempt.
  struct ReloadOutcome {
    bool success = false;
    std::uint64_t epoch = 0;   // the serving epoch after the attempt
    std::string error;         // ArtifactError text when !success
  };

  /// Loads the JEMIDX1 artifact at `path` (empty = the configured
  /// reload_index_path), validates it against the running parameters and
  /// subject set, and atomically swaps the serving epoch. In-flight
  /// requests finish on their original index; the LRU cache is cleared
  /// only on success. On any validation/IO failure the old index keeps
  /// serving and the structured error text is returned. Thread-safe;
  /// concurrent reloads serialize.
  [[nodiscard]] ReloadOutcome reload_index(const std::string& path);

  /// Serving epoch: 0 at start, +1 per successful reload.
  [[nodiscard]] std::uint64_t epoch() const noexcept {
    return epoch_.load(std::memory_order_acquire);
  }

  /// Workers restarted in place after an abort.
  [[nodiscard]] std::uint64_t worker_restarts() const noexcept {
    return worker_restarts_.load(std::memory_order_relaxed);
  }

  /// The flight-recorder ring (never null when flight_recorder_size > 0;
  /// null otherwise). Exposed for the SIGUSR1 dump and tests.
  [[nodiscard]] const FlightRecorder* flight_recorder() const noexcept {
    return flight_.get();
  }

  /// Human-readable flight-recorder dump (the SIGUSR1 payload). Empty
  /// string when the recorder is disabled.
  [[nodiscard]] std::string flight_recorder_text(std::size_t limit = 64) const;

 private:
  /// Per-request observability state threaded through handle().
  struct RequestContext {
    obs::TraceContext trace;  ///< Server ids: trace_id + fresh request span id.
    Clock::time_point start{};
    FlightRecord record;
  };

  /// One endpoint of the route table: the method it takes, its handler and
  /// the histogram its latency goes to (null = untimed).
  using Handler = HttpResponse (MappingServer::*)(const HttpRequest&,
                                                  RequestContext&,
                                                  core::MapScratch&);
  struct Route {
    std::string_view path;
    std::string_view method;
    Handler handler;
    obs::Histogram* latency_ns;
  };

  /// The SLO ring holds the deepest /healthz tier: 300 frames (the "5m"
  /// window at the production 1 s frame width).
  static constexpr std::size_t kSloFrames = 300;

  // Transport and lifecycle (server.cpp).
  void acceptor_loop();
  void worker_main();
  void worker_loop();
  void serve_connection(int fd, core::MapScratch& scratch);
  /// Consults fault site `site`: sleeps out a delay here and returns the
  /// drop or abort the site must act on (kNone otherwise).
  [[nodiscard]] util::FaultAction fault_at(std::string_view site);
  /// Answers an aborted request with the structured 500 and closes `fd`.
  void answer_aborted(int fd);

  // Routing and /map (router.cpp).
  /// handle() on the caller's scratch: what a worker runs per request.
  [[nodiscard]] HttpResponse route(const HttpRequest& request,
                                   core::MapScratch& scratch);
  [[nodiscard]] HttpResponse handle_map(const HttpRequest& request,
                                        RequestContext& ctx,
                                        core::MapScratch& scratch);
  /// Structured JSON error response.
  [[nodiscard]] static HttpResponse error_response(int status,
                                                   core::ServiceErrorCode code,
                                                   std::string_view field,
                                                   std::string_view message);
  /// The unsigned query parameter `name`, at most `max`; nullopt when
  /// absent. Garbage or a larger value throws out to route(), which
  /// answers a structured 400 naming the field.
  [[nodiscard]] static std::optional<std::uint64_t> uint_param(
      const HttpRequest& request, std::string_view name, std::uint64_t max);

  /// Current serving epoch (never null once constructed).
  [[nodiscard]] std::shared_ptr<const core::MappingService> current_service()
      const;

  // Operational endpoints (ops.cpp); same signature as handle_map.
  HttpResponse handle_healthz(const HttpRequest&, RequestContext&,
                              core::MapScratch&);
  HttpResponse handle_metrics(const HttpRequest&, RequestContext&,
                              core::MapScratch&);
  HttpResponse handle_debug_requests(const HttpRequest&, RequestContext&,
                                     core::MapScratch&);
  HttpResponse handle_reload(const HttpRequest&, RequestContext&,
                             core::MapScratch&);

  /// Windowed SLO section of /healthz ("slo":{...}) — shared with the
  /// OpenMetrics exposition via slo_openmetrics().
  [[nodiscard]] std::string slo_json();
  [[nodiscard]] std::string slo_openmetrics();

  ServerConfig config_;

  mutable std::mutex service_mutex_;  // guards the service_ pointer only
  std::shared_ptr<const core::MappingService> service_;

  std::mutex reload_mutex_;  // serializes reload_index()
  std::atomic<std::uint64_t> epoch_{0};
  std::atomic<std::uint64_t> reloads_{0};

  std::unique_ptr<obs::Registry> owned_registry_;
  obs::Registry* registry_ = nullptr;

  // Metric handles (resolved once; updates are lock-free).
  obs::Counter* requests_total_ = nullptr;
  obs::Counter* responses_2xx_ = nullptr;
  obs::Counter* responses_4xx_ = nullptr;
  obs::Counter* responses_5xx_ = nullptr;
  obs::Counter* shed_total_ = nullptr;
  obs::Counter* deadline_expired_ = nullptr;
  obs::Counter* cache_hits_ = nullptr;
  obs::Counter* cache_misses_ = nullptr;
  obs::Counter* cache_evictions_ = nullptr;
  obs::Counter* rejected_head_ = nullptr;
  obs::Counter* rejected_body_ = nullptr;
  obs::Counter* rejected_malformed_ = nullptr;
  obs::Counter* chaos_delay_ = nullptr;
  obs::Counter* chaos_reset_ = nullptr;
  obs::Counter* chaos_partial_ = nullptr;
  obs::Counter* chaos_abort_ = nullptr;
  obs::Counter* chaos_cache_bypass_ = nullptr;
  obs::Counter* reload_success_ = nullptr;
  obs::Counter* reload_rejected_ = nullptr;
  obs::Counter* restarts_worker_ = nullptr;
  obs::Gauge* queue_gauge_ = nullptr;
  obs::Gauge* cache_size_ = nullptr;
  obs::Gauge* epoch_gauge_ = nullptr;
  /// `serve.batch.size`: 1 per map call, since every map is a batch of
  /// one. Kept because perfbench's serve probe reads it.
  obs::Histogram* batch_size_ = nullptr;

  std::array<Route, 5> routes_{};
  util::FaultInjector injector_;

  // Request-scoped observability (docs/observability.md).
  std::unique_ptr<FlightRecorder> flight_;
  obs::WindowedHistogram win_latency_;   // /map total latency per request
  obs::WindowedCounter win_requests_;    // /map requests
  obs::WindowedCounter win_errors_;      // /map 5xx (excluding sheds)
  obs::WindowedCounter win_shed_;        // 503 sheds (acceptor)
  util::LogRateLimiter worker_died_limit_;

  int listen_fd_ = -1;
  std::uint16_t port_ = 0;
  std::atomic<bool> running_{false};
  std::atomic<bool> accepting_{false};

  std::unique_ptr<util::BoundedQueue<int>> conn_queue_;

  std::mutex cache_mutex_;
  std::unique_ptr<LruCache<std::string, core::MapServiceResponse>> cache_;

  std::thread acceptor_;
  std::vector<std::thread> workers_;

  std::atomic<std::uint64_t> worker_restarts_{0};

  Clock::time_point started_at_{};
};

}  // namespace jem::serve
