// MappingServer transport and lifecycle (server.hpp): the listen socket, the
// acceptor and its admission shed, the workers and their in-place restart,
// and the fault sites on the connection path.
#include "serve/server.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <optional>
#include <thread>
#include <utility>

#include "core/mapper.hpp"
#include "serve/socket.hpp"
#include "util/log.hpp"

namespace jem::serve {

namespace {

using core::ServiceErrorCode;
using util::FaultAction;

/// Hard-closes a connection with an RST (SO_LINGER zero) — the injected
/// "connection reset" fault the resilient client must survive.
void reset_connection(int fd) {
  linger lg{};
  lg.l_onoff = 1;
  lg.l_linger = 0;
  (void)setsockopt(fd, SOL_SOCKET, SO_LINGER, &lg, sizeof(lg));
  ::close(fd);
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
  queue_gauge_ = &registry_->gauge("serve.queue.depth");
  cache_size_ = &registry_->gauge("serve.cache.size");
  epoch_gauge_ = &registry_->gauge("serve.index.epoch");
  // Which scan and sketch kernels produced the map timings it reports.
  core::publish_kernel_lanes(*registry_);
  const auto latency = [this](std::string_view name) {
    return &registry_->histogram(name, obs::Unit::kNanos);
  };
  routes_ = {{
      {"/map", "POST", &MappingServer::handle_map,
       latency("serve.endpoint.map.latency_ns")},
      {"/healthz", "GET", &MappingServer::handle_healthz,
       latency("serve.endpoint.healthz.latency_ns")},
      {"/metrics", "GET", &MappingServer::handle_metrics,
       latency("serve.endpoint.metrics.latency_ns")},
      {"/debug/requests", "GET", &MappingServer::handle_debug_requests,
       nullptr},
      {"/admin/reload", "POST", &MappingServer::handle_reload, nullptr},
  }};
  batch_size_ = &registry_->histogram("serve.batch.size");

  conn_queue_ =
      std::make_unique<util::BoundedQueue<int>>(config_.queue_capacity);
  if (config_.cache_capacity > 0) {
    cache_ = std::make_unique<LruCache<std::string, core::MapServiceResponse>>(
        config_.cache_capacity);
  }
}

MappingServer::~MappingServer() { stop(); }

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

  workers_.clear();
  workers_.reserve(config_.workers);
  for (std::size_t i = 0; i < config_.workers; ++i) {
    workers_.emplace_back([this] { worker_main(); });
  }
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
  //    A worker that aborts mid-drain restarts in place and keeps popping,
  //    so no admitted connection is stranded.
  conn_queue_->close();
  for (std::thread& worker : workers_) {
    if (worker.joinable()) worker.join();
  }
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
    if (fault_at("serve.accept") != FaultAction::kNone) {
      chaos_reset_->add();
      reset_connection(fd);
      continue;
    }

    // Admission control: a non-blocking push. A full queue sheds the
    // connection right here with 503 + Retry-After — the listener never
    // blocks behind slow workers.
    int conn = fd;
    if (conn_queue_->try_push(conn)) {
      queue_gauge_->set(static_cast<std::int64_t>(conn_queue_->size()));
      continue;
    }
    shed_total_->add();
    responses_5xx_->add();
    win_shed_.add(1);
    HttpResponse shed = error_response(503, ServiceErrorCode::kOverloaded, "",
                                       "admission queue full; retry shortly");
    shed.headers.emplace_back("Retry-After",
                              std::to_string(config_.retry_after_s));
    (void)send_all(fd, serialize_response(shed));
    ::close(fd);
  }
}

void MappingServer::worker_main() {
  while (true) {
    try {
      worker_loop();
      return;  // the queue is closed and drained
    } catch (const std::exception& error) {
      // Injected abort (util::FaultAbort) or a genuine bug: the request in
      // flight has been answered; restart on a fresh scratch. A chaos plan
      // can abort workers hundreds of times a second; the limiter keeps
      // the warn stream at one line per second with a suppressed count.
      std::uint64_t suppressed = 0;
      if (worker_died_limit_.allow(suppressed)) {
        util::log_warn() << "serve: worker died (restart gen "
                         << worker_restarts_.load(std::memory_order_relaxed)
                         << "): " << error.what()
                         << util::LogRateLimiter::suffix(suppressed);
      }
      worker_restarts_.fetch_add(1, std::memory_order_relaxed);
      restarts_worker_->add();
    }
  }
}

void MappingServer::worker_loop() {
  // One scratch per worker for its whole life: a reload keeps the subject
  // set, so every epoch this worker maps on has the same scratch size.
  core::MapScratch scratch = current_service()->make_scratch();
  while (true) {
    std::optional<int> fd = conn_queue_->pop();
    if (!fd) return;  // closed and drained
    queue_gauge_->set(static_cast<std::int64_t>(conn_queue_->size()));
    serve_connection(*fd, scratch);
  }
}

void MappingServer::serve_connection(int fd, core::MapScratch& scratch) {
  // serve.read: one decision per connection (not per recv) so a seeded
  // plan's invocation numbering is independent of TCP segmentation. Delay
  // stalls the read, drop resets the peer, abort restarts this worker after
  // resetting the peer (its request never entered the pipeline, so nothing
  // is left in flight).
  const FaultAction read_fault = fault_at("serve.read");
  if (read_fault == FaultAction::kDrop) {
    chaos_reset_->add();
    reset_connection(fd);
    return;
  }
  if (read_fault == FaultAction::kAbort) {
    chaos_abort_->add();
    reset_connection(fd);
    throw util::FaultAbort(injector_.rank(), "serve.read");
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
    response = error_response(parsed.reject_status,
                              ServiceErrorCode::kInvalidArgument, "request",
                              parsed.error);
  } else {
    try {
      response = route(parsed.request, scratch);
    } catch (const util::FaultAbort&) {
      answer_aborted(fd);
      throw;
    }
  }

  // serve.write: one decision per response. Delay stalls the write, drop
  // truncates it mid-body (the client sees a torn response), abort answers
  // with a structured 500 and then restarts this worker.
  const FaultAction write_fault = fault_at("serve.write");
  if (write_fault == FaultAction::kDrop) {
    chaos_partial_->add();
    const std::string wire = serialize_response(response);
    (void)send_all(fd, std::string_view(wire).substr(0, wire.size() / 2));
    reset_connection(fd);
    return;
  }
  if (write_fault == FaultAction::kAbort) {
    chaos_abort_->add();
    answer_aborted(fd);
    throw util::FaultAbort(injector_.rank(), "serve.write");
  }

  (void)send_all(fd, serialize_response(response));
  ::close(fd);
}

FaultAction MappingServer::fault_at(std::string_view site) {
  if (!injector_.active()) return FaultAction::kNone;
  const util::FaultDecision fault = injector_.next(site);
  if (fault.action != FaultAction::kDelay) return fault.action;
  chaos_delay_->add();
  std::this_thread::sleep_for(fault.delay);
  return FaultAction::kNone;
}

void MappingServer::answer_aborted(int fd) {
  // Crash containment: the in-flight request gets a structured 500 before
  // its worker restarts — never a hung client.
  responses_5xx_->add();
  (void)send_all(fd, serialize_response(error_response(
                         500, ServiceErrorCode::kInternal, "",
                         "worker aborted by fault injection")));
  ::close(fd);
}

}  // namespace jem::serve
