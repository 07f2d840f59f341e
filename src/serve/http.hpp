// Minimal, dependency-free HTTP/1.1 message layer for the mapping service:
// just enough of RFC 9112 for a local loopback front end — request line,
// headers, Content-Length bodies, query strings — parsed incrementally from
// a byte buffer so the socket loop can feed partial reads. No chunked
// encoding, no keep-alive (every response carries `Connection: close`),
// no TLS: `jem serve` binds loopback and fronts one process.
//
// The parser is deliberately separate from the socket code (server.cpp)
// so it is unit-testable on plain strings, including truncation and
// malformed-input cases, without opening a socket.
#pragma once

#include <cstddef>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace jem::serve {

/// One parsed request. Header names are lower-cased at parse time; query
/// parameters are percent-decoding-free (the service API uses only
/// [A-Za-z0-9_] names and integer values).
struct HttpRequest {
  std::string method;   // "GET", "POST", ...
  std::string target;   // raw request target ("/map?top_x=3")
  std::string path;     // target up to '?' ("/map")
  std::string version;  // "HTTP/1.1"
  std::vector<std::pair<std::string, std::string>> headers;
  std::vector<std::pair<std::string, std::string>> query;
  std::string body;

  /// First header with this (case-insensitive) name, or nullptr.
  [[nodiscard]] const std::string* header(std::string_view name) const;

  /// First query parameter with this name, or nullptr.
  [[nodiscard]] const std::string* query_param(std::string_view name) const;
};

struct HttpResponse {
  int status = 200;
  std::string content_type = "application/json";
  std::vector<std::pair<std::string, std::string>> headers;  // extras
  std::string body;

  /// First header with this (case-insensitive) name, or nullptr — the
  /// client-side mirror of HttpRequest::header (e.g. `x-jem-request-id`).
  [[nodiscard]] const std::string* header(std::string_view name) const;
};

enum class ParseStatus {
  kComplete,    // one full message parsed
  kIncomplete,  // need more bytes
  kBad,         // malformed — reject the connection
};

struct RequestParse {
  ParseStatus status = ParseStatus::kIncomplete;
  HttpRequest request;     // valid when kComplete
  std::size_t consumed = 0;  // bytes of `buffer` the message occupied
  std::string error;       // diagnostic when kBad
  /// Status the server should answer with before closing when kBad:
  /// 431 for an oversized header block, 413 for a body beyond `max_body`,
  /// 400 for everything else malformed.
  int reject_status = 400;
};

/// Parses one request from the front of `buffer`. Returns kIncomplete while
/// the head or declared body is still truncated, kBad on a malformed head,
/// a missing/overflowing Content-Length, or a body larger than `max_body`.
[[nodiscard]] RequestParse parse_request(std::string_view buffer,
                                         std::size_t max_body = 1 << 20);

/// Canonical reason phrase for the handful of statuses the server emits.
[[nodiscard]] std::string_view status_reason(int status) noexcept;

/// Serializes a response with Content-Length and `Connection: close`.
[[nodiscard]] std::string serialize_response(const HttpResponse& response);

/// Serializes a request (client side: tests, jem probe, perfbench).
/// Adds Host and Content-Length headers.
[[nodiscard]] std::string serialize_request(const HttpRequest& request,
                                            std::string_view host);

struct ResponseParse {
  ParseStatus status = ParseStatus::kIncomplete;
  HttpResponse response;  // valid when kComplete
  std::string error;
};

/// Parses a response (client side). Body completeness is judged by
/// Content-Length when present; without one the caller must feed the full
/// connection-closed buffer and `eof` must be true.
[[nodiscard]] ResponseParse parse_response(std::string_view buffer, bool eof);

}  // namespace jem::serve
