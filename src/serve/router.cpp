// MappingServer routing (server.hpp): the route table, the query-parameter
// reader, structured error bodies and POST /map.
#include "serve/server.hpp"

#include <charconv>
#include <limits>
#include <optional>
#include <utility>

#include "obs/json.hpp"
#include "util/log.hpp"

namespace jem::serve {

namespace {

using core::MapServiceRequest;
using core::MapServiceResponse;
using core::ServiceError;
using core::ServiceErrorCode;
using core::ServiceFailure;
using util::FaultAction;

/// A query parameter that is not an unsigned integer within its bound.
struct ParamError {
  std::string field;
  std::string message;
};

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

/// The request body is the query bases; tolerate a trailing newline from
/// `curl --data-binary @file` and friends.
std::string_view trim_sequence(std::string_view body) {
  while (!body.empty() &&
         (body.back() == '\n' || body.back() == '\r' || body.back() == ' ')) {
    body.remove_suffix(1);
  }
  return body;
}

std::uint64_t elapsed_ns(core::MappingService::Clock::time_point since) {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          core::MappingService::Clock::now() - since)
          .count());
}

}  // namespace

HttpResponse MappingServer::error_response(int status, ServiceErrorCode code,
                                           std::string_view field,
                                           std::string_view message) {
  HttpResponse response;
  response.status = status;
  response.body = "{\"error\":\"";
  response.body += core::service_error_name(code);
  response.body += '"';
  if (!field.empty()) {
    response.body += ",\"field\":\"";
    response.body += obs::json::escape(field);
    response.body += '"';
  }
  response.body += ",\"message\":\"";
  response.body += obs::json::escape(message);
  response.body += "\"}";
  return response;
}

std::optional<std::uint64_t> MappingServer::uint_param(
    const HttpRequest& request, std::string_view name, std::uint64_t max) {
  const std::string* raw = request.query_param(name);
  if (raw == nullptr) return std::nullopt;
  std::uint64_t value = 0;
  const auto [ptr, ec] =
      std::from_chars(raw->data(), raw->data() + raw->size(), value);
  if (ec != std::errc{} || ptr != raw->data() + raw->size()) {
    throw ParamError{std::string(name),
                     "not an unsigned integer: '" + *raw + "'"};
  }
  if (value > max) {
    throw ParamError{std::string(name), "out of range: '" + *raw +
                                            "' (at most " +
                                            std::to_string(max) + ")"};
  }
  return value;
}

std::shared_ptr<const core::MappingService> MappingServer::current_service()
    const {
  std::lock_guard lock(service_mutex_);
  return service_;
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
  const Route* endpoint = nullptr;
  for (const Route& candidate : routes_) {
    if (request.path == candidate.path) endpoint = &candidate;
  }
  if (endpoint == nullptr) {
    response = error_response(404, ServiceErrorCode::kInvalidArgument, "path",
                              "no such endpoint '" + request.path + "'");
  } else if (request.method != endpoint->method) {
    response = error_response(405, ServiceErrorCode::kInvalidArgument,
                              "method",
                              request.path + " takes " +
                                  std::string(endpoint->method));
  } else {
    try {
      response = (this->*endpoint->handler)(request, ctx, scratch);
    } catch (const ParamError& error) {
      response = error_response(400, ServiceErrorCode::kInvalidArgument,
                                error.field, error.message);
    }
    if (endpoint->latency_ns != nullptr) {
      endpoint->latency_ns->record(elapsed_ns(ctx.start));
    }
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
      std::chrono::nanoseconds(total_ns) >= config_.slow_threshold) {
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
  // The 200 response, its body construction timed (and spanned).
  const auto respond = [&](const MapServiceResponse& service_response) {
    const auto serialize_start = Clock::now();
    std::optional<obs::Span> span;
    if (config_.tracer != nullptr) {
      span.emplace(config_.tracer->span("serve.serialize[" +
                                        ctx.trace.trace_id + "]"));
    }
    HttpResponse response;
    response.body = map_response_body(service_response);
    span.reset();
    ctx.record.serialize_ns = elapsed_ns(serialize_start);
    return response;
  };

  // Snapshot the serving epoch once: this request runs start-to-finish on
  // the index it started on, even if a reload lands mid-flight.
  const std::shared_ptr<const core::MappingService> service =
      current_service();

  // Assemble the service request: body = bases, knobs via query string.
  MapServiceRequest service_request;
  service_request.sequence = std::string(trim_sequence(request.body));
  if (const auto top_x = uint_param(request, "top_x",
                                    std::numeric_limits<std::size_t>::max())) {
    service_request.top_x = static_cast<std::size_t>(*top_x);
  }
  if (const auto min_votes =
          uint_param(request, "min_votes",
                     std::numeric_limits<std::uint32_t>::max())) {
    service_request.min_votes = static_cast<std::uint32_t>(*min_votes);
  }
  std::chrono::milliseconds budget = config_.default_deadline;
  if (const auto deadline_ms =
          uint_param(request, "deadline_ms",
                     static_cast<std::uint64_t>(kMaxDeadline.count()))) {
    budget = std::chrono::milliseconds(*deadline_ms);
  }
  try {
    service_request.validate(service->config().params);
  } catch (const ServiceError& error) {
    return error_response(400, error.code(), error.field(), error.detail());
  }

  // serve.cache: delay stalls the probe, drop bypasses the cache for this
  // request (a forced miss — results stay identical, only latency and hit
  // tallies move), abort restarts this worker (answered in
  // serve_connection).
  const FaultAction cache_fault =
      cache_ ? fault_at("serve.cache") : FaultAction::kNone;
  const bool cache_bypassed = cache_fault == FaultAction::kDrop;
  if (cache_bypassed) chaos_cache_bypass_->add();
  if (cache_fault == FaultAction::kAbort) {
    chaos_abort_->add();
    throw util::FaultAbort(injector_.rank(), "serve.cache");
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
      return respond(*cached);
    }
    cache_misses_->add();
  }

  // Map on this worker, on its own scratch. The deadline counts from
  // handle() entry and is checked before the kernel runs. A throw (a bug,
  // not a request condition) is answered as a structured 500.
  std::optional<Clock::time_point> deadline;
  if (budget.count() > 0) deadline = ctx.start + budget;
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
    const bool expired = failure.code == ServiceErrorCode::kDeadlineExceeded;
    if (expired) deadline_expired_->add();
    ctx.record.annotation = core::service_error_name(failure.code);
    return error_response(expired ? 504 : 500, failure.code, "",
                          failure.message);
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
  return respond(service_response);
}

}  // namespace jem::serve
