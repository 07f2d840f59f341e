#include "serve/server.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <charconv>
#include <cstdio>
#include <cstring>
#include <limits>
#include <optional>
#include <thread>
#include <utility>

#include "core/index_serde.hpp"
#include "io/artifact.hpp"
#include "obs/json.hpp"
#include "obs/openmetrics.hpp"
#include "util/log.hpp"

namespace jem::serve {

namespace {

using core::MapServiceRequest;
using core::MapServiceResponse;
using core::ServiceError;
using core::ServiceErrorCode;
using core::ServiceFailure;
using util::FaultAction;
using util::FaultDecision;

/// Applies SO_RCVTIMEO/SO_SNDTIMEO so a stalled peer cannot pin a thread.
void set_socket_timeouts(int fd, std::chrono::milliseconds timeout) {
  timeval tv{};
  tv.tv_sec = static_cast<time_t>(timeout.count() / 1000);
  tv.tv_usec = static_cast<suseconds_t>((timeout.count() % 1000) * 1000);
  (void)setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
  (void)setsockopt(fd, SOL_SOCKET, SO_SNDTIMEO, &tv, sizeof(tv));
}

/// send() the whole buffer (MSG_NOSIGNAL: a vanished peer must not raise
/// SIGPIPE). Retries EINTR and short writes; returns false on real failure.
bool send_all(int fd, std::string_view bytes) {
  std::size_t sent = 0;
  while (sent < bytes.size()) {
    const ssize_t n = ::send(fd, bytes.data() + sent, bytes.size() - sent,
                             MSG_NOSIGNAL);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) return false;
    sent += static_cast<std::size_t>(n);
  }
  return true;
}

/// Hard-closes a connection with an RST (SO_LINGER zero) — the injected
/// "connection reset" fault the resilient client must survive.
void reset_connection(int fd) {
  linger lg{};
  lg.l_onoff = 1;
  lg.l_linger = 0;
  (void)setsockopt(fd, SOL_SOCKET, SO_LINGER, &lg, sizeof(lg));
  ::close(fd);
}

/// JSON error body in the service's structured-error shape.
std::string error_body(ServiceErrorCode code, std::string_view field,
                       std::string_view message) {
  std::string out = "{\"error\":\"";
  out += core::service_error_name(code);
  out += '"';
  if (!field.empty()) {
    out += ",\"field\":\"";
    out += obs::json::escape(field);
    out += '"';
  }
  out += ",\"message\":\"";
  out += obs::json::escape(message);
  out += "\"}";
  return out;
}

std::string map_response_body(const MapServiceResponse& response) {
  std::string out = "{\"mapped\":";
  out += response.mapped() ? "true" : "false";
  out += ",\"trials\":" + std::to_string(response.trials);
  out += ",\"cache\":\"";
  out += response.cache_hit ? "hit" : "miss";
  out += "\",\"hits\":[";
  for (std::size_t i = 0; i < response.hits.size(); ++i) {
    if (i > 0) out += ',';
    out += "{\"subject\":\"";
    out += obs::json::escape(response.hits[i].subject_name);
    out += "\",\"votes\":" + std::to_string(response.hits[i].votes) + '}';
  }
  out += "]}";
  return out;
}

/// Parses a non-negative integer query parameter; false on garbage.
bool parse_uint_param(const std::string& text, std::uint64_t& out) {
  const auto [ptr, ec] =
      std::from_chars(text.data(), text.data() + text.size(), out);
  return ec == std::errc{} && ptr == text.data() + text.size();
}

/// The request body is the query bases; tolerate a trailing newline from
/// `curl --data-binary @file` and friends.
std::string_view trim_sequence(std::string_view body) {
  while (!body.empty() &&
         (body.back() == '\n' || body.back() == '\r' || body.back() == ' ')) {
    body.remove_suffix(1);
  }
  return body;
}

/// The SLO ring must hold the deepest /healthz tier: 300 frames (the "5m"
/// window at the production 1 s frame width).
constexpr std::size_t kSloFrames = 300;

/// /healthz + OpenMetrics window tiers, in frames of ServerConfig::slo_frame.
struct SloTier {
  std::string_view label;
  std::size_t frames;
};
constexpr SloTier kSloTiers[] = {{"10s", 10}, {"1m", 60}, {"5m", 300}};

std::uint64_t elapsed_ns(core::MappingService::Clock::time_point since) {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          core::MappingService::Clock::now() - since)
          .count());
}

void append_ms(std::string& out, double ns) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.3f", ns / 1e6);
  out += buf;
}

}  // namespace

MappingServer::MappingServer(const core::MappingService& service,
                             ServerConfig config)
    : MappingServer(std::shared_ptr<const core::MappingService>(
                        &service, [](const core::MappingService*) {}),
                    std::move(config)) {}

MappingServer::MappingServer(
    std::shared_ptr<const core::MappingService> service, ServerConfig config)
    : config_(std::move(config)),
      service_(std::move(service)),
      injector_(config_.fault_plan, /*rank=*/0),
      win_latency_(config_.slo_frame, kSloFrames),
      win_requests_(config_.slo_frame, kSloFrames),
      win_errors_(config_.slo_frame, kSloFrames),
      win_shed_(config_.slo_frame, kSloFrames) {
  if (config_.workers == 0) config_.workers = 1;
  if (config_.flight_recorder_size > 0) {
    flight_ = std::make_unique<FlightRecorder>(config_.flight_recorder_size);
  }
  if (config_.metrics != nullptr) {
    registry_ = config_.metrics;
  } else {
    owned_registry_ = std::make_unique<obs::Registry>();
    registry_ = owned_registry_.get();
  }

  requests_total_ = &registry_->counter("serve.http.requests");
  responses_2xx_ = &registry_->counter("serve.http.responses.2xx");
  responses_4xx_ = &registry_->counter("serve.http.responses.4xx");
  responses_5xx_ = &registry_->counter("serve.http.responses.5xx");
  shed_total_ = &registry_->counter("serve.http.shed");
  deadline_expired_ = &registry_->counter("serve.deadline.expired");
  cache_hits_ = &registry_->counter("serve.cache.hits");
  cache_misses_ = &registry_->counter("serve.cache.misses");
  cache_evictions_ = &registry_->counter("serve.cache.evictions");
  rejected_head_ = &registry_->counter("serve.http.rejected.head");
  rejected_body_ = &registry_->counter("serve.http.rejected.body");
  rejected_malformed_ = &registry_->counter("serve.http.rejected.malformed");
  chaos_delay_ = &registry_->counter("serve.chaos.injected.delay");
  chaos_reset_ = &registry_->counter("serve.chaos.injected.reset");
  chaos_partial_ = &registry_->counter("serve.chaos.injected.partial");
  chaos_abort_ = &registry_->counter("serve.chaos.injected.abort");
  chaos_cache_bypass_ =
      &registry_->counter("serve.chaos.injected.cache_bypass");
  reload_success_ = &registry_->counter("serve.reload.success");
  reload_rejected_ = &registry_->counter("serve.reload.rejected");
  restarts_worker_ = &registry_->counter("serve.supervisor.worker_restarts");
  queue_depth_ = &registry_->gauge("serve.queue.depth");
  cache_size_ = &registry_->gauge("serve.cache.size");
  epoch_gauge_ = &registry_->gauge("serve.index.epoch");
  map_latency_ns_ =
      &registry_->histogram("serve.endpoint.map.latency_ns", obs::Unit::kNanos);
  healthz_latency_ns_ = &registry_->histogram("serve.endpoint.healthz.latency_ns",
                                              obs::Unit::kNanos);
  metrics_latency_ns_ = &registry_->histogram("serve.endpoint.metrics.latency_ns",
                                              obs::Unit::kNanos);
  batch_size_ = &registry_->histogram("serve.batch.size");

  conn_queue_ =
      std::make_unique<util::BoundedQueue<int>>(config_.queue_capacity);
  if (config_.cache_capacity > 0) {
    cache_ = std::make_unique<LruCache<std::string, MapServiceResponse>>(
        config_.cache_capacity);
  }
}

MappingServer::~MappingServer() { stop(); }

std::shared_ptr<const core::MappingService> MappingServer::current_service()
    const {
  std::lock_guard lock(service_mutex_);
  return service_;
}

void MappingServer::start() {
  if (running_.load(std::memory_order_acquire)) return;

  listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (listen_fd_ < 0) {
    throw ServeError(std::string("socket: ") + std::strerror(errno));
  }
  const int one = 1;
  (void)setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(config_.port);
  if (::inet_pton(AF_INET, config_.host.c_str(), &addr.sin_addr) != 1) {
    ::close(listen_fd_);
    listen_fd_ = -1;
    throw ServeError("bad listen address '" + config_.host + "'");
  }
  if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) !=
      0) {
    const std::string reason = std::strerror(errno);
    ::close(listen_fd_);
    listen_fd_ = -1;
    throw ServeError("bind " + config_.host + ":" +
                     std::to_string(config_.port) + ": " + reason);
  }
  if (::listen(listen_fd_, 128) != 0) {
    const std::string reason = std::strerror(errno);
    ::close(listen_fd_);
    listen_fd_ = -1;
    throw ServeError("listen: " + reason);
  }
  socklen_t addr_len = sizeof(addr);
  if (::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&addr),
                    &addr_len) == 0) {
    port_ = ntohs(addr.sin_port);
  }

  started_at_ = Clock::now();
  accepting_.store(true, std::memory_order_release);
  running_.store(true, std::memory_order_release);

  {
    std::lock_guard lock(lifecycle_mutex_);
    supervising_ = true;
    respawn_enabled_ = true;
    workers_active_ = config_.workers;
    dead_.clear();
  }
  workers_.clear();
  workers_.reserve(config_.workers);
  for (std::size_t i = 0; i < config_.workers; ++i) {
    workers_.emplace_back([this, i] { worker_main(i); });
  }
  supervisor_ = std::thread([this] { supervisor_loop(); });
  acceptor_ = std::thread([this] { acceptor_loop(); });
}

void MappingServer::stop() {
  if (!running_.exchange(false, std::memory_order_acq_rel)) return;

  // 1. Stop admitting: the acceptor exits its poll loop; the listen socket
  //    closes so new connects are refused.
  accepting_.store(false, std::memory_order_release);
  if (acceptor_.joinable()) acceptor_.join();
  if (listen_fd_ >= 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
  }

  // 2. Drain admitted connections: close() releases blocked workers while
  //    keeping queued items poppable, so every accepted request is served.
  //    The supervisor stays armed through the drain — a worker that aborts
  //    mid-drain is still respawned, so no admitted connection is stranded.
  conn_queue_->close();
  {
    std::unique_lock lock(lifecycle_mutex_);
    drained_cv_.wait(lock, [this] {
      return workers_active_ == 0 && respawn_in_flight_ == 0 && dead_.empty();
    });
    respawn_enabled_ = false;
  }

  // 3. Every worker has exited; join the thread objects. Moved out under
  //    the lock so the supervisor never races the vector.
  std::vector<std::thread> finished;
  {
    std::lock_guard lock(lifecycle_mutex_);
    finished.swap(workers_);
  }
  for (std::thread& worker : finished) {
    if (worker.joinable()) worker.join();
  }

  // 4. Retire the supervisor.
  {
    std::lock_guard lock(lifecycle_mutex_);
    supervising_ = false;
  }
  death_cv_.notify_all();
  if (supervisor_.joinable()) supervisor_.join();
}

void MappingServer::acceptor_loop() {
  while (accepting_.load(std::memory_order_acquire)) {
    pollfd pfd{};
    pfd.fd = listen_fd_;
    pfd.events = POLLIN;
    const int ready = ::poll(&pfd, 1, 100);
    if (ready <= 0) continue;
    const int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) continue;
    set_socket_timeouts(fd, config_.io_timeout);

    // serve.accept: delay stalls the admission, drop/abort resets the new
    // connection. The acceptor itself never dies — a dead listener is a
    // dead server, not a survivable fault.
    if (injector_.active()) {
      const FaultDecision fault = injector_.next("serve.accept");
      if (fault.action == FaultAction::kDelay) {
        chaos_delay_->add();
        std::this_thread::sleep_for(fault.delay);
      } else if (fault.action != FaultAction::kNone) {
        chaos_reset_->add();
        reset_connection(fd);
        continue;
      }
    }

    // Admission control: try-push (zero wait). A full queue sheds the
    // connection right here with 503 + Retry-After — the listener never
    // blocks behind slow workers.
    int conn = fd;
    const util::QueueOpResult admitted =
        conn_queue_->push_wait_for(conn, std::chrono::milliseconds(0));
    if (admitted == util::QueueOpResult::kSuccess) {
      queue_depth_->set(static_cast<std::int64_t>(conn_queue_->size()));
      continue;
    }
    shed_total_->add();
    responses_5xx_->add();
    win_shed_.add(1);
    HttpResponse shed;
    shed.status = 503;
    shed.headers.emplace_back("Retry-After",
                              std::to_string(config_.retry_after_s));
    shed.body = error_body(ServiceErrorCode::kOverloaded, "",
                           "admission queue full; retry shortly");
    (void)send_all(fd, serialize_response(shed));
    ::close(fd);
  }
}

void MappingServer::worker_main(std::size_t slot) {
  bool died = false;
  try {
    worker_loop();
  } catch (const std::exception& error) {
    // Injected abort (util::FaultAbort) or a genuine bug: either way the
    // thread is gone — hand the slot to the supervisor for respawn. A chaos
    // plan can kill workers hundreds of times a second; the limiter keeps
    // the warn stream at one line per second with a suppressed count.
    std::uint64_t suppressed = 0;
    if (worker_died_limit_.allow(suppressed)) {
      util::log_warn() << "serve: worker died (restart gen "
                       << worker_restarts_.load(std::memory_order_relaxed)
                       << "): " << error.what()
                       << util::LogRateLimiter::suffix(suppressed);
    }
    died = true;
  }
  {
    std::lock_guard lock(lifecycle_mutex_);
    if (died) dead_.push_back(slot);
    if (workers_active_ > 0) --workers_active_;
  }
  if (died) death_cv_.notify_all();
  drained_cv_.notify_all();
}

void MappingServer::worker_loop() {
  // One scratch per worker for its whole life: a reload keeps the subject
  // set, so every epoch this worker maps on has the same scratch size.
  core::MapScratch scratch = current_service()->make_scratch();
  while (true) {
    std::optional<int> fd = conn_queue_->pop();
    if (!fd) return;  // closed and drained
    queue_depth_->set(static_cast<std::int64_t>(conn_queue_->size()));
    serve_connection(*fd, scratch);
  }
}

void MappingServer::serve_connection(int fd, core::MapScratch& scratch) {
  // serve.read: one decision per connection (not per recv) so a seeded
  // plan's invocation numbering is independent of TCP segmentation. Delay
  // stalls the read, drop resets the peer, abort kills this worker after
  // resetting the peer (its request never entered the pipeline, so nothing
  // is left in flight).
  if (injector_.active()) {
    const FaultDecision fault = injector_.next("serve.read");
    if (fault.action == FaultAction::kDelay) {
      chaos_delay_->add();
      std::this_thread::sleep_for(fault.delay);
    } else if (fault.action == FaultAction::kDrop) {
      chaos_reset_->add();
      reset_connection(fd);
      return;
    } else if (fault.action == FaultAction::kAbort) {
      chaos_abort_->add();
      reset_connection(fd);
      throw util::FaultAbort(injector_.rank(), "serve.read");
    }
  }

  std::string buffer;
  char chunk[8192];
  RequestParse parsed;
  while (true) {
    parsed = parse_request(buffer);
    if (parsed.status != ParseStatus::kIncomplete) break;
    const ssize_t n = ::recv(fd, chunk, sizeof(chunk), 0);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) {  // timeout, reset, or EOF mid-request: drop quietly
      ::close(fd);
      return;
    }
    buffer.append(chunk, static_cast<std::size_t>(n));
  }

  HttpResponse response;
  if (parsed.status == ParseStatus::kBad) {
    requests_total_->add();
    responses_4xx_->add();
    switch (parsed.reject_status) {
      case 431: rejected_head_->add(); break;
      case 413: rejected_body_->add(); break;
      default: rejected_malformed_->add(); break;
    }
    response.status = parsed.reject_status;
    response.body = error_body(ServiceErrorCode::kInvalidArgument, "request",
                               parsed.error);
  } else {
    try {
      response = route(parsed.request, scratch);
    } catch (const util::FaultAbort&) {
      // Crash containment: the in-flight request is answered with a
      // structured 500 before this worker dies — never a hung client.
      responses_5xx_->add();
      HttpResponse crashed;
      crashed.status = 500;
      crashed.body = error_body(ServiceErrorCode::kInternal, "",
                                "worker aborted by fault injection");
      (void)send_all(fd, serialize_response(crashed));
      ::close(fd);
      throw;
    }
  }

  // serve.write: one decision per response. Delay stalls the write, drop
  // truncates it mid-body (the client sees a torn response), abort answers
  // with a structured 500 and then kills this worker.
  if (injector_.active()) {
    const FaultDecision fault = injector_.next("serve.write");
    if (fault.action == FaultAction::kDelay) {
      chaos_delay_->add();
      std::this_thread::sleep_for(fault.delay);
    } else if (fault.action == FaultAction::kDrop) {
      chaos_partial_->add();
      const std::string wire = serialize_response(response);
      (void)send_all(fd, std::string_view(wire).substr(0, wire.size() / 2));
      reset_connection(fd);
      return;
    } else if (fault.action == FaultAction::kAbort) {
      chaos_abort_->add();
      responses_5xx_->add();
      HttpResponse crashed;
      crashed.status = 500;
      crashed.body = error_body(ServiceErrorCode::kInternal, "",
                                "worker aborted by fault injection");
      (void)send_all(fd, serialize_response(crashed));
      ::close(fd);
      throw util::FaultAbort(injector_.rank(), "serve.write");
    }
  }

  (void)send_all(fd, serialize_response(response));
  ::close(fd);
}

HttpResponse MappingServer::handle(const HttpRequest& request) {
  core::MapScratch scratch = current_service()->make_scratch();
  return route(request, scratch);
}

HttpResponse MappingServer::route(const HttpRequest& request,
                                  core::MapScratch& scratch) {
  requests_total_->add();

  // Trace stamping: honor a forwarded W3C traceparent (the client's span
  // becomes our parent; we mint a fresh request/span id inside its trace),
  // otherwise start a new trace. The pair flows through every log line,
  // span, flight record, error body and the x-jem-request-id echo.
  RequestContext ctx;
  ctx.start = Clock::now();
  if (const std::string* parent = request.header("traceparent")) {
    if (const auto parsed = obs::parse_traceparent(*parent)) {
      ctx.trace = obs::child_of(*parsed);
    }
  }
  if (ctx.trace.trace_id.empty()) ctx.trace = obs::generate_trace_context();
  ctx.record.trace_id = ctx.trace.trace_id;
  ctx.record.request_id = ctx.trace.span_id;
  ctx.record.endpoint = request.path;

  std::optional<obs::Span> span;
  if (config_.tracer != nullptr) {
    span.emplace(
        config_.tracer->span("serve.request[" + ctx.trace.trace_id + "]"));
  }

  HttpResponse response;
  if (request.path == "/map") {
    if (request.method != "POST") {
      response.status = 405;
      response.body = error_body(ServiceErrorCode::kInvalidArgument, "method",
                                 "/map takes POST");
    } else {
      response = handle_map(request, ctx, scratch);
    }
  } else if (request.path == "/healthz") {
    if (request.method != "GET") {
      response.status = 405;
      response.body = error_body(ServiceErrorCode::kInvalidArgument, "method",
                                 "/healthz takes GET");
    } else {
      response = handle_healthz();
    }
  } else if (request.path == "/metrics") {
    if (request.method != "GET") {
      response.status = 405;
      response.body = error_body(ServiceErrorCode::kInvalidArgument, "method",
                                 "/metrics takes GET");
    } else {
      response = handle_metrics(request);
    }
  } else if (request.path == "/debug/requests") {
    if (request.method != "GET") {
      response.status = 405;
      response.body = error_body(ServiceErrorCode::kInvalidArgument, "method",
                                 "/debug/requests takes GET");
    } else {
      response = handle_debug_requests(request);
    }
  } else if (request.path == "/admin/reload") {
    if (request.method != "POST") {
      response.status = 405;
      response.body = error_body(ServiceErrorCode::kInvalidArgument, "method",
                                 "/admin/reload takes POST");
    } else {
      response = handle_reload(request);
    }
  } else {
    response.status = 404;
    response.body = error_body(ServiceErrorCode::kInvalidArgument, "path",
                               "no such endpoint '" + request.path + "'");
  }
  span.reset();

  if (response.status < 300) {
    responses_2xx_->add();
  } else if (response.status < 500) {
    responses_4xx_->add();
  } else {
    responses_5xx_->add();
  }

  // Echo the ids; stamp them into structured error bodies (every error body
  // this server builds is a JSON object).
  response.headers.emplace_back(
      "x-jem-request-id", ctx.trace.trace_id + "-" + ctx.trace.span_id);
  if (response.status >= 400 && !response.body.empty() &&
      response.body.front() == '{') {
    response.body.insert(1, "\"trace_id\":\"" + ctx.trace.trace_id +
                                "\",\"request_id\":\"" + ctx.trace.span_id +
                                "\",");
  }

  const std::uint64_t total_ns = elapsed_ns(ctx.start);
  ctx.record.status = response.status;
  ctx.record.total_ns = total_ns;

  // Windowed SLO tallies cover the mapping workload: /map latency and 5xx
  // errors. Sheds are added in acceptor_loop — they never reach here.
  if (request.path == "/map") {
    win_latency_.record(total_ns);
    win_requests_.add(1);
    if (response.status >= 500) win_errors_.add(1);
  }

  if (flight_) flight_->push(ctx.record);

  // Access log at debug so the hot path stays quiet at the default level.
  util::log_debug() << "serve: " << request.method << " " << request.path
                    << " " << response.status
                    << " trace=" << ctx.trace.trace_id
                    << " req=" << ctx.trace.span_id
                    << " total_us=" << total_ns / 1000;

  // Slow-request exemplar: the full span breakdown, at warn, rate-unlimited
  // (exemplars are rare by construction of the threshold).
  if (config_.slow_threshold.count() > 0 &&
      total_ns >= static_cast<std::uint64_t>(
                      std::chrono::duration_cast<std::chrono::nanoseconds>(
                          config_.slow_threshold)
                          .count())) {
    util::log_warn() << "serve: slow request trace=" << ctx.trace.trace_id
                     << " req=" << ctx.trace.span_id << " " << request.method
                     << " " << request.path << " " << response.status
                     << " total_us=" << total_ns / 1000
                     << " queue_wait_us=" << ctx.record.queue_wait_ns / 1000
                     << " map_us=" << ctx.record.map_ns / 1000
                     << " serialize_us=" << ctx.record.serialize_ns / 1000
                     << (ctx.record.annotation.empty() ? "" : " note=")
                     << ctx.record.annotation;
  }
  return response;
}

HttpResponse MappingServer::handle_map(const HttpRequest& request,
                                       RequestContext& ctx,
                                       core::MapScratch& scratch) {
  const auto start = ctx.start;
  HttpResponse response;
  const auto finish = [&](HttpResponse r) {
    map_latency_ns_->record(elapsed_ns(start));
    return r;
  };
  // Response-body construction, timed (and spanned) per request.
  const auto serialize = [&](const MapServiceResponse& service_response) {
    const auto serialize_start = Clock::now();
    std::optional<obs::Span> span;
    if (config_.tracer != nullptr) {
      span.emplace(config_.tracer->span("serve.serialize[" +
                                        ctx.trace.trace_id + "]"));
    }
    std::string body = map_response_body(service_response);
    span.reset();
    ctx.record.serialize_ns = elapsed_ns(serialize_start);
    return body;
  };

  // Snapshot the serving epoch once: this request runs start-to-finish on
  // the index it started on, even if a reload lands mid-flight.
  const std::shared_ptr<const core::MappingService> service =
      current_service();

  // Assemble the service request: body = bases, knobs via query string.
  MapServiceRequest service_request;
  service_request.sequence = std::string(trim_sequence(request.body));
  if (const std::string* raw = request.query_param("top_x")) {
    std::uint64_t value = 0;
    if (!parse_uint_param(*raw, value)) {
      response.status = 400;
      response.body = error_body(ServiceErrorCode::kInvalidArgument, "top_x",
                                 "not an unsigned integer: '" + *raw + "'");
      return finish(std::move(response));
    }
    service_request.top_x = static_cast<std::size_t>(value);
  }
  if (const std::string* raw = request.query_param("min_votes")) {
    std::uint64_t value = 0;
    if (!parse_uint_param(*raw, value)) {
      response.status = 400;
      response.body =
          error_body(ServiceErrorCode::kInvalidArgument, "min_votes",
                     "not an unsigned integer: '" + *raw + "'");
      return finish(std::move(response));
    }
    if (value > std::numeric_limits<std::uint32_t>::max()) {
      response.status = 400;
      response.body = error_body(
          ServiceErrorCode::kInvalidArgument, "min_votes",
          "out of range: '" + *raw + "' (at most " +
              std::to_string(std::numeric_limits<std::uint32_t>::max()) + ")");
      return finish(std::move(response));
    }
    service_request.min_votes = static_cast<std::uint32_t>(value);
  }
  std::chrono::milliseconds budget = config_.default_deadline;
  if (const std::string* raw = request.query_param("deadline_ms")) {
    std::uint64_t value = 0;
    if (!parse_uint_param(*raw, value)) {
      response.status = 400;
      response.body =
          error_body(ServiceErrorCode::kInvalidArgument, "deadline_ms",
                     "not an unsigned integer: '" + *raw + "'");
      return finish(std::move(response));
    }
    if (value > static_cast<std::uint64_t>(kMaxDeadline.count())) {
      response.status = 400;
      response.body = error_body(
          ServiceErrorCode::kInvalidArgument, "deadline_ms",
          "out of range: '" + *raw + "' (at most " +
              std::to_string(kMaxDeadline.count()) + ")");
      return finish(std::move(response));
    }
    budget = std::chrono::milliseconds(value);
  }
  try {
    service_request.validate(service->config().params);
  } catch (const ServiceError& error) {
    response.status = 400;
    response.body = error_body(error.code(), error.field(), error.what());
    return finish(std::move(response));
  }

  // serve.cache: delay stalls the probe, drop bypasses the cache for this
  // request (a forced miss — results stay identical, only latency and hit
  // tallies move), abort kills this worker (contained in serve_connection).
  bool cache_bypassed = false;
  if (cache_ && injector_.active()) {
    const FaultDecision fault = injector_.next("serve.cache");
    if (fault.action == FaultAction::kDelay) {
      chaos_delay_->add();
      std::this_thread::sleep_for(fault.delay);
    } else if (fault.action == FaultAction::kDrop) {
      chaos_cache_bypass_->add();
      cache_bypassed = true;
    } else if (fault.action == FaultAction::kAbort) {
      chaos_abort_->add();
      throw util::FaultAbort(injector_.rank(), "serve.cache");
    }
  }

  // Cache probe. The key embeds every knob that shapes the response; the
  // stored key is compared byte-for-byte on lookup (digest-collision safe).
  std::string cache_key;
  if (cache_ && !cache_bypassed) {
    cache_key = service_request.sequence;
    cache_key += '\x1f';
    cache_key += std::to_string(service_request.top_x);
    cache_key += '\x1f';
    cache_key += service_request.min_votes
                     ? std::to_string(*service_request.min_votes)
                     : std::string("-");
    std::optional<MapServiceResponse> cached;
    {
      std::lock_guard lock(cache_mutex_);
      cached = cache_->get(cache_key);
    }
    if (cached) {
      cache_hits_->add();
      cached->cache_hit = true;
      ctx.record.cache_hit = true;
      response.body = serialize(*cached);
      return finish(std::move(response));
    }
    cache_misses_->add();
  }

  // Map on this worker, on its own scratch. The deadline counts from
  // handle() entry and is checked before the kernel runs. A throw (a bug,
  // not a request condition) is answered as a structured 500.
  std::optional<Clock::time_point> deadline;
  if (budget.count() > 0) deadline = start + budget;
  MapServiceResponse service_response;
  {
    std::optional<obs::Span> span;
    if (config_.tracer != nullptr) {
      span.emplace(
          config_.tracer->span("serve.map[" + ctx.trace.trace_id + "]"));
    }
    const auto map_start = Clock::now();
    try {
      service_response = service->map(service_request, scratch, deadline);
    } catch (const std::exception& error) {
      service_response.failure =
          ServiceFailure{ServiceErrorCode::kInternal, error.what()};
    }
    ctx.record.map_ns = elapsed_ns(map_start);
  }
  batch_size_->record(1);
  if (!service_response.ok()) {
    const ServiceFailure& failure = *service_response.failure;
    if (failure.code == ServiceErrorCode::kDeadlineExceeded) {
      deadline_expired_->add();
      response.status = 504;
    } else {
      response.status = 500;
    }
    ctx.record.annotation = core::service_error_name(failure.code);
    response.body = error_body(failure.code, "", failure.message);
    return finish(std::move(response));
  }

  if (cache_ && !cache_bypassed) {
    std::lock_guard lock(cache_mutex_);
    cache_->put(std::move(cache_key), service_response);
    cache_size_->set(static_cast<std::int64_t>(cache_->size()));
    // Counters are monotonic; evictions tally lives in the cache.
    const std::uint64_t evicted = cache_->evictions();
    const std::uint64_t published = cache_evictions_->value();
    if (evicted > published) cache_evictions_->add(evicted - published);
  }
  response.body = serialize(service_response);
  return finish(std::move(response));
}

HttpResponse MappingServer::handle_healthz() {
  const auto start = Clock::now();
  HttpResponse response;
  const std::shared_ptr<const core::MappingService> service =
      current_service();
  const std::uint64_t epoch = epoch_.load(std::memory_order_acquire);
  const auto uptime_s = std::chrono::duration_cast<std::chrono::seconds>(
                            Clock::now() - started_at_)
                            .count();
  std::string body = "{\"status\":\"ok\",\"subjects\":";
  body += std::to_string(service->subjects().size());
  body += ",\"trials\":";
  body += std::to_string(service->config().params.trials);
  body += ",\"index\":\"";
  // Epoch > 0 means the serving index came from a hot-swapped artifact.
  body += (service->load_report().loaded_from_artifact || epoch > 0)
              ? "artifact"
              : "rebuilt";
  body += "\",\"epoch\":";
  body += std::to_string(epoch);
  body += ",\"reloads\":";
  body += std::to_string(reloads_.load(std::memory_order_relaxed));
  body += ",\"worker_restarts\":";
  body += std::to_string(worker_restarts_.load(std::memory_order_relaxed));
  body += ",\"uptime_s\":";
  body += std::to_string(uptime_s);
  body += ",\"slo\":";
  body += slo_json();
  body += '}';
  response.body = std::move(body);
  healthz_latency_ns_->record(static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                           start)
          .count()));
  return response;
}

std::string MappingServer::slo_json() {
  std::string out = "{";
  bool first_tier = true;
  for (const auto& tier : kSloTiers) {
    const auto window = config_.slo_frame * static_cast<int>(tier.frames);
    obs::WindowSnapshot snap = win_latency_.snapshot(window);
    if (!first_tier) out += ',';
    first_tier = false;
    out += '"';
    out += tier.label;
    out += "\":{\"p50_ms\":";
    append_ms(out, snap.quantile(0.50));
    out += ",\"p99_ms\":";
    append_ms(out, snap.quantile(0.99));
    out += ",\"p999_ms\":";
    append_ms(out, snap.quantile(0.999));
    out += ",\"requests\":";
    out += std::to_string(win_requests_.total(window));
    out += ",\"errors\":";
    out += std::to_string(win_errors_.total(window));
    out += ",\"shed\":";
    out += std::to_string(win_shed_.total(window));
    out += '}';
  }
  // Cumulative tail for contrast: the process-lifetime numbers the windows
  // are designed to escape.
  const obs::WindowSnapshot all = win_latency_.cumulative();
  out += ",\"cumulative\":{\"p50_ms\":";
  append_ms(out, all.quantile(0.50));
  out += ",\"p99_ms\":";
  append_ms(out, all.quantile(0.99));
  out += ",\"p999_ms\":";
  append_ms(out, all.quantile(0.999));
  out += ",\"requests\":";
  out += std::to_string(all.count);
  out += "}}";
  return out;
}

std::string MappingServer::slo_openmetrics() {
  std::string out;
  out += "# TYPE jem_serve_slo_latency_ns gauge\n";
  for (const auto& tier : kSloTiers) {
    const auto window = config_.slo_frame * static_cast<int>(tier.frames);
    obs::WindowSnapshot snap = win_latency_.snapshot(window);
    for (const auto& [q_label, q] :
         {std::pair<const char*, double>{"0.5", 0.50},
          {"0.99", 0.99},
          {"0.999", 0.999}}) {
      std::string labels = "window=\"";
      labels += tier.label;
      labels += "\",quantile=\"";
      labels += q_label;
      labels += '"';
      out += obs::openmetrics_sample("jem_serve_slo_latency_ns", labels,
                                     snap.quantile(q));
    }
  }
  const auto add_window_counts = [&](const char* family,
                                     obs::WindowedCounter& counter) {
    out += "# TYPE ";
    out += family;
    out += " gauge\n";
    for (const auto& tier : kSloTiers) {
      const auto window = config_.slo_frame * static_cast<int>(tier.frames);
      std::string labels = "window=\"";
      labels += tier.label;
      labels += '"';
      out += obs::openmetrics_sample(
          family, labels, static_cast<double>(counter.total(window)));
    }
  };
  add_window_counts("jem_serve_slo_requests", win_requests_);
  add_window_counts("jem_serve_slo_errors", win_errors_);
  add_window_counts("jem_serve_slo_shed", win_shed_);
  return out;
}

HttpResponse MappingServer::handle_metrics(const HttpRequest& request) {
  const auto start = Clock::now();
  HttpResponse response;
  // Accept negotiation: the JSON snapshot stays the default (and byte-
  // stable); OpenMetrics text is opt-in via the Accept header or
  // ?format=openmetrics (curl convenience).
  bool openmetrics = false;
  if (const std::string* accept = request.header("accept")) {
    openmetrics =
        accept->find("application/openmetrics-text") != std::string::npos;
  }
  if (const std::string* format = request.query_param("format")) {
    if (*format == "openmetrics") openmetrics = true;
  }
  if (openmetrics) {
    response.content_type = std::string(obs::kOpenMetricsContentType);
    response.body = obs::to_openmetrics(registry_->snapshot(),
                                        slo_openmetrics());
  } else {
    response.body = registry_->snapshot().to_json();
    response.body += '\n';
  }
  metrics_latency_ns_->record(static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                           start)
          .count()));
  return response;
}

HttpResponse MappingServer::handle_debug_requests(const HttpRequest& request) {
  HttpResponse response;
  if (!flight_) {
    response.status = 404;
    response.body = error_body(ServiceErrorCode::kInvalidArgument, "path",
                               "flight recorder disabled "
                               "(--flight-recorder-size 0)");
    return response;
  }
  FlightFilter filter;
  if (const std::string* raw = request.query_param("status")) {
    std::uint64_t value = 0;
    if (!parse_uint_param(*raw, value)) {
      response.status = 400;
      response.body = error_body(ServiceErrorCode::kInvalidArgument, "status",
                                 "not an unsigned integer: '" + *raw + "'");
      return response;
    }
    filter.status = static_cast<int>(value);
  }
  if (const std::string* raw = request.query_param("min_latency_ms")) {
    std::uint64_t value = 0;
    if (!parse_uint_param(*raw, value)) {
      response.status = 400;
      response.body =
          error_body(ServiceErrorCode::kInvalidArgument, "min_latency_ms",
                     "not an unsigned integer: '" + *raw + "'");
      return response;
    }
    filter.min_total_ns = value * 1000000ull;
  }
  if (const std::string* raw = request.query_param("limit")) {
    std::uint64_t value = 0;
    if (!parse_uint_param(*raw, value)) {
      response.status = 400;
      response.body = error_body(ServiceErrorCode::kInvalidArgument, "limit",
                                 "not an unsigned integer: '" + *raw + "'");
      return response;
    }
    filter.limit = static_cast<std::size_t>(value);
  }
  response.body = flight_->to_json(filter);
  return response;
}

std::string MappingServer::flight_recorder_text(std::size_t limit) const {
  if (!flight_) return {};
  return flight_->to_text(limit);
}

HttpResponse MappingServer::handle_reload(const HttpRequest& request) {
  std::string path = config_.reload_index_path;
  if (const std::string* raw = request.query_param("path")) path = *raw;
  HttpResponse response;
  if (path.empty()) {
    response.status = 400;
    response.body = error_body(
        ServiceErrorCode::kInvalidArgument, "path",
        "no ?path= given and the server has no configured reload path");
    return response;
  }
  const ReloadOutcome outcome = reload_index(path);
  if (!outcome.success) {
    // 409: the request was well-formed but the artifact conflicts with the
    // running configuration (or is unreadable); the old index keeps serving.
    response.status = 409;
    response.body =
        error_body(ServiceErrorCode::kIndexUnavailable, "index", outcome.error);
    return response;
  }
  response.body = "{\"status\":\"reloaded\",\"epoch\":" +
                  std::to_string(outcome.epoch) + "}";
  return response;
}

MappingServer::ReloadOutcome MappingServer::reload_index(
    const std::string& path) {
  std::lock_guard reload_lock(reload_mutex_);
  ReloadOutcome outcome;
  const std::shared_ptr<const core::MappingService> current =
      current_service();

  // Load and validate against the RUNNING fingerprint: same params, same
  // scheme, same subject set. index_serde rejects any disagreement with a
  // structured ArtifactError naming the offending field.
  io::SequenceSet subjects = current->subjects();  // value copy
  std::shared_ptr<const core::MappingService> fresh;
  try {
    core::SketchTable table = core::load_index(
        path, current->config().params, current->config().scheme, subjects);
    fresh = std::make_shared<const core::MappingService>(
        std::move(subjects), current->config(), std::move(table));
  } catch (const io::ArtifactError& error) {
    reload_rejected_->add();
    outcome.epoch = epoch_.load(std::memory_order_acquire);
    outcome.error = error.what();
    util::log_warn() << "serve: reload rejected: " << outcome.error;
    return outcome;
  }

  // Atomic publish: new requests snapshot the fresh epoch, in-flight ones
  // finish on the shared_ptr they already hold.
  {
    std::lock_guard lock(service_mutex_);
    service_ = fresh;
  }
  const std::uint64_t epoch =
      epoch_.fetch_add(1, std::memory_order_acq_rel) + 1;
  reloads_.fetch_add(1, std::memory_order_relaxed);
  epoch_gauge_->set(static_cast<std::int64_t>(epoch));
  reload_success_->add();

  // The cache may hold responses computed on the old index; clear it only
  // now that the swap is committed.
  if (cache_) {
    std::lock_guard lock(cache_mutex_);
    cache_->clear();
    cache_size_->set(0);
  }

  outcome.success = true;
  outcome.epoch = epoch;
  util::log_info() << "serve: index hot-swapped from '" << path << "' (epoch "
                   << epoch << ")";
  return outcome;
}

void MappingServer::supervisor_loop() {
  std::unique_lock lock(lifecycle_mutex_);
  while (true) {
    death_cv_.wait(lock, [this] { return !dead_.empty() || !supervising_; });
    if (dead_.empty() && !supervising_) return;

    const std::size_t slot = dead_.back();
    dead_.pop_back();
    ++respawn_in_flight_;
    std::thread corpse = std::move(workers_[slot]);
    lock.unlock();
    if (corpse.joinable()) corpse.join();
    lock.lock();

    if (respawn_enabled_) {
      workers_[slot] = std::thread([this, slot] { worker_main(slot); });
      ++workers_active_;
      worker_restarts_.fetch_add(1, std::memory_order_relaxed);
      restarts_worker_->add();
    }
    --respawn_in_flight_;
    drained_cv_.notify_all();
  }
}

}  // namespace jem::serve
