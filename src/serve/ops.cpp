// MappingServer's operational endpoints (server.hpp): /healthz and its SLO
// windows, /metrics, /debug/requests and the /admin/reload hot swap.
#include "serve/server.hpp"

#include <cstdio>
#include <limits>
#include <utility>

#include "core/index_serde.hpp"
#include "io/artifact.hpp"
#include "obs/openmetrics.hpp"
#include "util/log.hpp"

namespace jem::serve {

namespace {

using core::ServiceErrorCode;

/// /healthz + OpenMetrics window tiers, in frames of ServerConfig::slo_frame.
struct SloTier {
  std::string_view label;
  std::size_t frames;
};
constexpr SloTier kSloTiers[] = {{"10s", 10}, {"1m", 60}, {"5m", 300}};

/// Appends `"p50_ms":…,"p99_ms":…,"p999_ms":…` for one latency window.
void append_quantiles(std::string& out, const obs::WindowSnapshot& snap) {
  char buf[96];
  std::snprintf(buf, sizeof buf,
                "\"p50_ms\":%.3f,\"p99_ms\":%.3f,\"p999_ms\":%.3f",
                snap.quantile(0.50) / 1e6, snap.quantile(0.99) / 1e6,
                snap.quantile(0.999) / 1e6);
  out += buf;
}

}  // namespace

HttpResponse MappingServer::handle_healthz(const HttpRequest&,
                                           RequestContext&,
                                           core::MapScratch&) {
  const std::shared_ptr<const core::MappingService> service =
      current_service();
  const std::uint64_t epoch = epoch_.load(std::memory_order_acquire);
  const auto uptime_s = std::chrono::duration_cast<std::chrono::seconds>(
                            Clock::now() - started_at_)
                            .count();
  HttpResponse response;
  std::string& body = response.body;
  body = "{\"status\":\"ok\",\"subjects\":";
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
    out += "\":{";
    append_quantiles(out, snap);
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
  out += ",\"cumulative\":{";
  append_quantiles(out, all);
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
      const std::string labels = "window=\"" + std::string(tier.label) +
                                 "\",quantile=\"" + q_label + '"';
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
      out += obs::openmetrics_sample(
          family, "window=\"" + std::string(tier.label) + '"',
          static_cast<double>(counter.total(window)));
    }
  };
  add_window_counts("jem_serve_slo_requests", win_requests_);
  add_window_counts("jem_serve_slo_errors", win_errors_);
  add_window_counts("jem_serve_slo_shed", win_shed_);
  return out;
}

HttpResponse MappingServer::handle_metrics(const HttpRequest& request,
                                           RequestContext&,
                                           core::MapScratch&) {
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
  return response;
}

HttpResponse MappingServer::handle_debug_requests(const HttpRequest& request,
                                                  RequestContext&,
                                                  core::MapScratch&) {
  if (!flight_) {
    return error_response(404, ServiceErrorCode::kInvalidArgument, "path",
                          "flight recorder disabled "
                          "(--flight-recorder-size 0)");
  }
  constexpr std::uint64_t kMax = std::numeric_limits<std::uint64_t>::max();
  FlightFilter filter;
  if (const auto status = uint_param(request, "status", 599)) {
    filter.status = static_cast<int>(*status);
  }
  // The floor is kept in nanoseconds: a larger value would wrap.
  if (const auto ms = uint_param(request, "min_latency_ms", kMax / 1000000)) {
    filter.min_total_ns = *ms * 1000000ull;
  }
  if (const auto limit = uint_param(request, "limit", kMax)) {
    filter.limit = static_cast<std::size_t>(*limit);
  }
  HttpResponse response;
  response.body = flight_->to_json(filter);
  return response;
}

std::string MappingServer::flight_recorder_text(std::size_t limit) const {
  if (!flight_) return {};
  return flight_->to_text(limit);
}

HttpResponse MappingServer::handle_reload(const HttpRequest& request,
                                          RequestContext&,
                                          core::MapScratch&) {
  std::string path = config_.reload_index_path;
  if (const std::string* raw = request.query_param("path")) path = *raw;
  if (path.empty()) {
    return error_response(
        400, ServiceErrorCode::kInvalidArgument, "path",
        "no ?path= given and the server has no configured reload path");
  }
  const ReloadOutcome outcome = reload_index(path);
  if (!outcome.success) {
    // 409: the request was well-formed but the artifact conflicts with the
    // running configuration (or is unreadable); the old index keeps serving.
    return error_response(409, ServiceErrorCode::kIndexUnavailable, "index",
                          outcome.error);
  }
  HttpResponse response;
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

}  // namespace jem::serve
