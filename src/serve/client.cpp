#include "serve/client.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <charconv>
#include <cstring>
#include <optional>
#include <thread>

#include "serve/socket.hpp"
#include "util/log.hpp"
#include "util/prng.hpp"

namespace jem::serve {

namespace {

/// RAII socket so every ClientError throw path closes the fd.
struct Socket {
  int fd = -1;
  ~Socket() {
    if (fd >= 0) ::close(fd);
  }
};

}  // namespace

HttpResponse http_request(const std::string& host, std::uint16_t port,
                          const HttpRequest& request,
                          std::chrono::milliseconds timeout) {
  Socket sock;
  sock.fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (sock.fd < 0) {
    throw ClientError(std::string("socket: ") + std::strerror(errno));
  }
  set_socket_timeouts(sock.fd, timeout);

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
    throw ClientError("bad address '" + host + "'");
  }
  while (::connect(sock.fd, reinterpret_cast<sockaddr*>(&addr),
                   sizeof(addr)) != 0) {
    if (errno == EINTR) continue;
    throw ClientError("connect " + host + ":" + std::to_string(port) + ": " +
                      std::strerror(errno));
  }

  const std::string wire =
      serialize_request(request, host + ":" + std::to_string(port));
  if (!send_all(sock.fd, wire)) {
    throw ClientError(std::string("send: ") + std::strerror(errno));
  }

  std::string buffer;
  char chunk[8192];
  while (true) {
    const ssize_t n = ::recv(sock.fd, chunk, sizeof(chunk), 0);
    if (n < 0 && errno == EINTR) continue;
    if (n < 0) {
      throw ClientError(std::string("recv: ") + std::strerror(errno));
    }
    const bool eof = (n == 0);
    if (!eof) buffer.append(chunk, static_cast<std::size_t>(n));
    const ResponseParse parsed = parse_response(buffer, eof);
    if (parsed.status == ParseStatus::kComplete) return parsed.response;
    if (parsed.status == ParseStatus::kBad) {
      throw ClientError("bad response: " + parsed.error);
    }
    if (eof) throw ClientError("connection closed mid-response");
  }
}

HttpResponse http_get(const std::string& host, std::uint16_t port,
                      std::string_view target,
                      std::chrono::milliseconds timeout) {
  HttpRequest request;
  request.method = "GET";
  request.target = std::string(target);
  return http_request(host, port, request, timeout);
}

HttpResponse http_post(const std::string& host, std::uint16_t port,
                       std::string_view target, std::string_view body,
                       std::chrono::milliseconds timeout) {
  HttpRequest request;
  request.method = "POST";
  request.target = std::string(target);
  request.body = std::string(body);
  return http_request(host, port, request, timeout);
}

// --- Client -----------------------------------------------------------------

namespace {

/// Retryable HTTP statuses: transient server-side conditions. Everything
/// else (2xx/4xx) is a final answer.
bool retryable_status(int status) {
  return status == 500 || status == 502 || status == 503 || status == 504;
}

/// Retry-After value in seconds from a response, or -1 when absent/bad.
long retry_after_seconds(const HttpResponse& response) {
  for (const auto& [name, value] : response.headers) {
    std::string lower(name);
    std::transform(lower.begin(), lower.end(), lower.begin(),
                   [](unsigned char c) { return std::tolower(c); });
    if (lower != "retry-after") continue;
    long seconds = -1;
    const auto [ptr, ec] =
        std::from_chars(value.data(), value.data() + value.size(), seconds);
    if (ec != std::errc{} || ptr != value.data() + value.size()) return -1;
    return seconds;
  }
  return -1;
}

}  // namespace

Client::Client(std::string host, std::uint16_t port, RetryPolicy policy,
               obs::Registry* metrics)
    : host_(std::move(host)),
      port_(port),
      policy_(policy),
      metrics_(metrics),
      rng_state_(policy.jitter_seed) {}

std::uint64_t Client::attempts() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return attempts_;
}

std::uint64_t Client::retries() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return retries_;
}

obs::TraceContext Client::last_trace() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return last_trace_;
}

std::chrono::milliseconds Client::backoff_delay(
    int attempt, std::chrono::milliseconds retry_after_hint) {
  // Full jitter (AWS architecture-blog shape): uniform in [0, cap] where
  // cap doubles each attempt. Deterministic: SplitMix64 over jitter_seed.
  std::uint64_t cap_ms = static_cast<std::uint64_t>(
      std::max<std::int64_t>(1, policy_.initial_backoff.count()));
  for (int i = 0; i < attempt && cap_ms < static_cast<std::uint64_t>(
                                              policy_.max_backoff.count());
       ++i) {
    cap_ms *= 2;
  }
  cap_ms = std::min(cap_ms,
                    static_cast<std::uint64_t>(policy_.max_backoff.count()));
  const std::uint64_t draw = util::SplitMix64{rng_state_}();
  rng_state_ = util::mix64(rng_state_ + 0x9e3779b97f4a7c15ull);
  std::chrono::milliseconds delay{
      static_cast<std::int64_t>(draw % (cap_ms + 1))};
  if (retry_after_hint.count() > 0) {
    delay = std::max(delay, std::min(retry_after_hint, policy_.max_backoff));
  }
  return delay;
}

HttpResponse Client::request(const HttpRequest& request) {
  // Trace stamping: honor a caller-supplied traceparent (the caller's trace
  // continues through us), otherwise mint a fresh context and forward it.
  // Retries reuse the same context — they are the same logical request.
  HttpRequest traced = request;
  obs::TraceContext trace;
  if (const std::string* existing = traced.header("traceparent")) {
    if (const auto parsed = obs::parse_traceparent(*existing)) trace = *parsed;
  }
  if (trace.trace_id.empty()) {
    trace = obs::generate_trace_context();
    traced.headers.emplace_back("traceparent", obs::to_traceparent(trace));
  }
  {
    std::lock_guard<std::mutex> lock(mutex_);
    last_trace_ = trace;
  }
  // One span over ALL attempts: the caller-visible latency, backoff
  // included. The id in the name ties it to the server-side span tree.
  std::optional<obs::Span> span;
  if (tracer_ != nullptr) {
    span.emplace(tracer_->span("client.request[" + trace.trace_id + "]"));
  }

  obs::Counter* attempts_counter =
      metrics_ ? &metrics_->counter("serve.client.attempts") : nullptr;
  obs::Counter* retries_counter =
      metrics_ ? &metrics_->counter("serve.client.retries") : nullptr;

  std::string last_error;
  HttpResponse last_response;
  bool have_response = false;

  for (int attempt = 0; attempt < policy_.max_attempts; ++attempt) {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      ++attempts_;
      if (attempt > 0) ++retries_;
    }
    if (attempts_counter) attempts_counter->add(1);
    if (retries_counter && attempt > 0) retries_counter->add(1);

    std::chrono::milliseconds retry_after_hint{0};
    try {
      last_response = http_request(host_, port_, traced);
      have_response = true;
      if (!retryable_status(last_response.status)) {
        util::log_debug() << "serve client: " << traced.method << " "
                          << (traced.target.empty() ? traced.path
                                                    : traced.target)
                          << " " << last_response.status
                          << " trace=" << trace.trace_id
                          << " attempts=" << attempt + 1;
        return last_response;
      }
      if (last_response.status == 503) {
        const long seconds = retry_after_seconds(last_response);
        if (seconds >= 0) retry_after_hint = std::chrono::seconds(seconds);
      }
    } catch (const ClientError& error) {
      last_error = error.what();
      have_response = false;
    }

    std::chrono::milliseconds delay{0};
    {
      std::lock_guard<std::mutex> lock(mutex_);
      delay = backoff_delay(attempt, retry_after_hint);
    }
    if (attempt + 1 < policy_.max_attempts && delay.count() > 0) {
      std::this_thread::sleep_for(delay);
    }
  }

  // Out of attempts. An HTTP-level failure is still a response — hand the
  // caller the last status; pure transport failure is an exception, same
  // contract as http_request.
  util::log_debug() << "serve client: " << traced.method << " "
                    << (traced.target.empty() ? traced.path : traced.target)
                    << " gave up trace=" << trace.trace_id << " "
                    << (have_response
                            ? "status=" + std::to_string(last_response.status)
                            : "error=" + last_error);
  if (have_response) return last_response;
  throw ClientError("request failed after " +
                    std::to_string(policy_.max_attempts) +
                    " attempts: " + last_error);
}

HttpResponse Client::get(std::string_view target) {
  HttpRequest request;
  request.method = "GET";
  request.target = std::string(target);
  return this->request(request);
}

HttpResponse Client::post(std::string_view target, std::string_view body) {
  HttpRequest request;
  request.method = "POST";
  request.target = std::string(target);
  request.body = std::string(body);
  return this->request(request);
}

}  // namespace jem::serve
