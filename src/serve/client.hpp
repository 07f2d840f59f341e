// HTTP/1.1 client layer for the mapping service: one request per connection
// (matching the server's `Connection: close`), loopback-oriented.
//
// Two tiers:
//  * http_request / http_get / http_post — the raw blocking transport: one
//    attempt, throws ClientError on any socket/parse failure. These remain
//    what byte-level tests use when they WANT to see a failure.
//  * Client — the retrying front end `jem probe` and the chaos suite use:
//    retries transport failures and 5xx statuses with exponential backoff +
//    full jitter, and honors Retry-After on 503 sheds (capped at
//    max_backoff). Every mapping-service endpoint is a pure function, so a
//    request whose connection died mid-flight is always safe to re-send.
//    Against a server running a seeded fault plan (resets, truncated
//    writes, worker aborts) the Client completes every request
//    bit-identical to a fault-free run — the acceptance contract of the
//    serve chaos suite.
#pragma once

#include <chrono>
#include <cstdint>
#include <mutex>
#include <stdexcept>
#include <string>
#include <string_view>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "obs/trace_context.hpp"
#include "serve/http.hpp"

namespace jem::serve {

/// Transport-level client failure (connect/send/recv/parse). HTTP error
/// statuses are NOT exceptions — they come back as HttpResponse::status.
class ClientError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// Sends one request to host:port and returns the parsed response. Throws
/// ClientError on transport failure; `timeout` bounds each socket wait.
[[nodiscard]] HttpResponse http_request(
    const std::string& host, std::uint16_t port, const HttpRequest& request,
    std::chrono::milliseconds timeout = std::chrono::milliseconds(10000));

/// GET `target` (path + optional query string).
[[nodiscard]] HttpResponse http_get(
    const std::string& host, std::uint16_t port, std::string_view target,
    std::chrono::milliseconds timeout = std::chrono::milliseconds(10000));

/// POST `body` to `target`.
[[nodiscard]] HttpResponse http_post(
    const std::string& host, std::uint16_t port, std::string_view target,
    std::string_view body,
    std::chrono::milliseconds timeout = std::chrono::milliseconds(10000));

/// Retry schedule: exponential backoff with full jitter (sleep uniform in
/// [0, min(max_backoff, initial << attempt)]), deterministic given
/// jitter_seed. A 503 with Retry-After sleeps at least
/// min(hint, max_backoff). Each attempt uses http_request's default
/// socket timeout.
struct RetryPolicy {
  int max_attempts = 4;
  std::chrono::milliseconds initial_backoff{10};
  std::chrono::milliseconds max_backoff{1000};
  std::uint64_t jitter_seed = 0x9e3779b97f4a7c15ull;
};

/// Resilient HTTP client: one instance per target server, shared across
/// threads (`jem probe` hands one to its whole worker pool — all state is
/// mutex-guarded; socket I/O runs outside the lock).
class Client {
 public:
  Client(std::string host, std::uint16_t port, RetryPolicy policy = {},
         obs::Registry* metrics = nullptr);

  /// Sends with up to max_attempts attempts. Returns the first final
  /// response, or the last retryable one once attempts run out — callers
  /// inspect .status. Throws ClientError when the last attempt failed at
  /// the transport level.
  [[nodiscard]] HttpResponse request(const HttpRequest& request);

  [[nodiscard]] HttpResponse get(std::string_view target);
  [[nodiscard]] HttpResponse post(std::string_view target,
                                  std::string_view body);

  [[nodiscard]] std::uint64_t attempts() const;
  [[nodiscard]] std::uint64_t retries() const;

  /// Wires a tracer: each request() gets a `client.request[<trace_id>]`
  /// span covering all attempts and backoff sleeps. Optional — nullptr
  /// (the default) keeps the client span-free.
  void set_tracer(obs::Tracer* tracer) noexcept { tracer_ = tracer; }

  /// Trace context of the most recent request() call (the ids the server
  /// saw in `traceparent`). Empty until the first request.
  [[nodiscard]] obs::TraceContext last_trace() const;

 private:
  [[nodiscard]] std::chrono::milliseconds backoff_delay(
      int attempt, std::chrono::milliseconds retry_after_hint);

  std::string host_;
  std::uint16_t port_;
  RetryPolicy policy_;
  obs::Registry* metrics_;
  obs::Tracer* tracer_ = nullptr;

  mutable std::mutex mutex_;  // guards rng_state_, tallies
  std::uint64_t rng_state_;
  std::uint64_t attempts_ = 0;
  std::uint64_t retries_ = 0;
  obs::TraceContext last_trace_;  // guarded by mutex_
};

}  // namespace jem::serve
