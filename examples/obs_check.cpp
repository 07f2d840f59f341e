// Validates observability artifacts (docs/observability.md):
//
//   obs_check --metrics out.json       # metrics snapshot export
//   obs_check --trace out.trace.json   # Chrome trace_event export
//   obs_check --openmetrics out.prom   # OpenMetrics text exposition
//   obs_check --flight flight.json     # /debug/requests dump
//
// Checks that the file parses as JSON and satisfies the export schema:
// metrics files are one {"metrics":[...]} object whose entries carry a
// name/kind/unit and the kind's value fields; trace files are one
// {"traceEvents":[...]} object whose B/E pairs are matched per track (the
// invariant Perfetto needs). Exit 0 on success, 1 with a diagnostic on
// the first violation, 2 on a malformed command line or no file to check
// (`--help` prints the usage and exits 0) — scripts/check.sh runs this as
// the metrics-smoke step.
#include <cstdint>
#include <fstream>
#include <iostream>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include "obs/json.hpp"
#include "util/options.hpp"

namespace {

using jem::obs::json::Value;

int fail(const std::string& path, const std::string& message) {
  std::cerr << "obs_check: " << path << ": " << message << '\n';
  return 1;
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error("cannot open file");
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

int check_metrics(const std::string& path) {
  const Value doc = jem::obs::json::parse(read_file(path));
  if (!doc.is_object()) return fail(path, "top level is not an object");
  const Value* metrics = doc.find("metrics");
  if (metrics == nullptr || !metrics->is_array()) {
    return fail(path, "missing \"metrics\" array");
  }
  std::string previous_name;
  for (const Value& entry : metrics->array) {
    if (!entry.is_object()) return fail(path, "metric entry is not an object");
    const Value* name = entry.find("name");
    const Value* kind = entry.find("kind");
    const Value* unit = entry.find("unit");
    if (name == nullptr || !name->is_string() || name->str.empty()) {
      return fail(path, "metric entry without a name");
    }
    if (kind == nullptr || !kind->is_string() || unit == nullptr ||
        !unit->is_string()) {
      return fail(path, "metric '" + name->str + "' lacks kind/unit");
    }
    if (name->str <= previous_name) {
      return fail(path, "entries not strictly name-sorted at '" + name->str +
                            "'");
    }
    previous_name = name->str;
    if (kind->str == "counter" || kind->str == "gauge") {
      if (entry.find("value") == nullptr) {
        return fail(path, "metric '" + name->str + "' lacks a value");
      }
    } else if (kind->str == "histogram") {
      const Value* buckets = entry.find("buckets");
      if (entry.find("count") == nullptr || entry.find("sum") == nullptr ||
          buckets == nullptr || !buckets->is_array()) {
        return fail(path,
                    "histogram '" + name->str + "' lacks count/sum/buckets");
      }
    } else {
      return fail(path, "metric '" + name->str + "' has unknown kind '" +
                            kind->str + "'");
    }
  }
  std::cout << "obs_check: " << path << ": ok (" << metrics->array.size()
            << " metrics)\n";
  return 0;
}

int check_trace(const std::string& path) {
  const Value doc = jem::obs::json::parse(read_file(path));
  if (!doc.is_object()) return fail(path, "top level is not an object");
  const Value* events = doc.find("traceEvents");
  if (events == nullptr || !events->is_array()) {
    return fail(path, "missing \"traceEvents\" array");
  }
  std::map<double, int> depth_by_tid;
  std::size_t spans = 0;
  for (const Value& event : events->array) {
    if (!event.is_object()) return fail(path, "event is not an object");
    const Value* ph = event.find("ph");
    if (ph == nullptr || !ph->is_string() || ph->str.empty()) {
      return fail(path, "event without a phase");
    }
    const Value* tid = event.find("tid");
    if (ph->str == "B") {
      if (tid == nullptr) return fail(path, "B event without a tid");
      if (event.find("name") == nullptr) {
        return fail(path, "B event without a name");
      }
      ++depth_by_tid[tid->number];
      ++spans;
    } else if (ph->str == "E") {
      if (tid == nullptr) return fail(path, "E event without a tid");
      if (--depth_by_tid[tid->number] < 0) {
        return fail(path, "E without a matching B on a track");
      }
    }
  }
  for (const auto& [tid, depth] : depth_by_tid) {
    if (depth != 0) {
      return fail(path, "unclosed span(s) on tid " +
                            std::to_string(static_cast<std::int64_t>(tid)));
    }
  }
  std::cout << "obs_check: " << path << ": ok (" << events->array.size()
            << " events, " << spans << " spans)\n";
  return 0;
}

/// OpenMetrics text exposition: `# TYPE` coverage for every sample family,
/// non-decreasing cumulative `_bucket` series ending in le="+Inf", numeric
/// values, and the mandatory `# EOF` terminator.
int check_openmetrics(const std::string& path) {
  const std::string text = read_file(path);
  std::vector<std::string_view> lines;
  std::string_view rest = text;
  while (!rest.empty()) {
    const std::size_t eol = rest.find('\n');
    lines.push_back(rest.substr(0, eol));
    if (eol == std::string_view::npos) break;
    rest.remove_prefix(eol + 1);
  }
  while (!lines.empty() && lines.back().empty()) lines.pop_back();
  if (lines.empty() || lines.back() != "# EOF") {
    return fail(path, "missing '# EOF' terminator");
  }
  lines.pop_back();

  std::map<std::string, std::string, std::less<>> families;  // name -> type
  std::set<std::string, std::less<>> sampled;
  struct BucketState {
    double last = -1.0;
    double inf_value = -1.0;
  };
  std::map<std::string, BucketState, std::less<>> buckets;
  std::size_t samples = 0;

  for (const std::string_view line : lines) {
    if (line.empty()) return fail(path, "blank line inside the exposition");
    if (line.front() == '#') {
      if (line.rfind("# HELP ", 0) == 0 || line.rfind("# UNIT ", 0) == 0) {
        continue;
      }
      if (line.rfind("# TYPE ", 0) != 0) {
        return fail(path, "unknown comment line: " + std::string(line));
      }
      const std::string_view decl = line.substr(7);
      const std::size_t space = decl.find(' ');
      if (space == std::string_view::npos) {
        return fail(path, "malformed # TYPE line: " + std::string(line));
      }
      const std::string family(decl.substr(0, space));
      const std::string type(decl.substr(space + 1));
      if (type != "counter" && type != "gauge" && type != "histogram") {
        return fail(path, "family '" + family + "' has unsupported type '" +
                              type + "'");
      }
      families[family] = type;
      continue;
    }

    // Sample line: name[{labels}] value
    ++samples;
    const std::size_t brace = line.find('{');
    const std::size_t name_end = std::min(brace, line.find(' '));
    if (name_end == std::string_view::npos) {
      return fail(path, "malformed sample line: " + std::string(line));
    }
    const std::string name(line.substr(0, name_end));
    std::string_view labels;
    std::string_view tail = line.substr(name_end);
    if (brace != std::string_view::npos && name_end == brace) {
      const std::size_t close = line.find('}', brace);
      if (close == std::string_view::npos) {
        return fail(path, "unterminated label set: " + std::string(line));
      }
      labels = line.substr(brace + 1, close - brace - 1);
      tail = line.substr(close + 1);
    }
    if (tail.empty() || tail.front() != ' ') {
      return fail(path, "sample without a value: " + std::string(line));
    }
    const std::string value_text(tail.substr(1));
    char* end = nullptr;
    const double value = std::strtod(value_text.c_str(), &end);
    if (end == value_text.c_str() || *end != '\0') {
      return fail(path, "non-numeric value: " + std::string(line));
    }

    // Resolve the sample back to its declared family.
    std::string family;
    std::string suffix;
    for (const std::string_view candidate_suffix :
         {"_total", "_bucket", "_sum", "_count", ""}) {
      if (name.size() <= candidate_suffix.size()) continue;
      if (std::string_view(name).substr(name.size() -
                                        candidate_suffix.size()) !=
          candidate_suffix) {
        continue;
      }
      const std::string base =
          name.substr(0, name.size() - candidate_suffix.size());
      const auto it = families.find(base);
      if (it != families.end()) {
        family = base;
        suffix = std::string(candidate_suffix);
        break;
      }
    }
    if (family.empty()) {
      const auto it = families.find(name);
      if (it == families.end()) {
        return fail(path, "sample '" + name + "' has no # TYPE declaration");
      }
      family = name;
    }
    const std::string& type = families[family];
    if ((type == "counter" && suffix != "_total") ||
        (type == "gauge" && !suffix.empty()) ||
        (type == "histogram" &&
         (suffix != "_bucket" && suffix != "_sum" && suffix != "_count"))) {
      return fail(path, "sample '" + name + "' does not match type '" + type +
                            "' of family '" + family + "'");
    }
    sampled.insert(family);

    if (suffix == "_bucket") {
      BucketState& state = buckets[family];
      if (value + 1e-9 < state.last) {
        return fail(path, "non-monotonic _bucket series for '" + family +
                              "' at le bucket with count " + value_text);
      }
      state.last = value;
      if (labels.find("le=\"+Inf\"") != std::string_view::npos) {
        state.inf_value = value;
      }
    } else if (suffix == "_count") {
      const auto it = buckets.find(family);
      if (it == buckets.end() || it->second.inf_value < 0) {
        return fail(path, "histogram '" + family +
                              "' lacks an le=\"+Inf\" bucket");
      }
      if (it->second.inf_value != value) {
        return fail(path, "histogram '" + family +
                              "': +Inf bucket disagrees with _count");
      }
    }
  }

  for (const auto& [family, type] : families) {
    if (sampled.count(family) == 0) {
      return fail(path, "family '" + family + "' declared but never sampled");
    }
  }
  std::cout << "obs_check: " << path << ": ok (" << families.size()
            << " families, " << samples << " samples)\n";
  return 0;
}

/// /debug/requests dump: capacity/recorded header plus a newest-first
/// `requests` array whose records carry the ids and per-stage timings.
int check_flight(const std::string& path) {
  const Value doc = jem::obs::json::parse(read_file(path));
  if (!doc.is_object()) return fail(path, "top level is not an object");
  if (doc.find("capacity") == nullptr || doc.find("recorded") == nullptr) {
    return fail(path, "missing capacity/recorded");
  }
  const Value* requests = doc.find("requests");
  if (requests == nullptr || !requests->is_array()) {
    return fail(path, "missing \"requests\" array");
  }
  double previous_seq = -1.0;
  for (const Value& entry : requests->array) {
    if (!entry.is_object()) return fail(path, "record is not an object");
    const Value* seq = entry.find("seq");
    if (seq == nullptr) return fail(path, "record without a seq");
    if (previous_seq >= 0 && seq->number >= previous_seq) {
      return fail(path, "records not newest-first at seq " +
                            std::to_string(
                                static_cast<std::uint64_t>(seq->number)));
    }
    previous_seq = seq->number;
    for (const char* key : {"trace_id", "request_id", "endpoint"}) {
      const Value* field = entry.find(key);
      if (field == nullptr || !field->is_string()) {
        return fail(path, std::string("record without a ") + key);
      }
    }
    for (const char* key :
         {"status", "queue_wait_ns", "map_ns", "serialize_ns", "total_ns"}) {
      if (entry.find(key) == nullptr) {
        return fail(path, std::string("record without ") + key);
      }
    }
  }
  std::cout << "obs_check: " << path << ": ok (" << requests->array.size()
            << " flight records)\n";
  return 0;
}

}  // namespace

int main(int argc, const char** argv) {
  std::string metrics_path;
  std::string trace_path;
  std::string openmetrics_path;
  std::string flight_path;
  jem::util::Options options;
  options.add_string("metrics", metrics_path, "metrics snapshot export");
  options.add_string("trace", trace_path, "Chrome trace_event export");
  options.add_string("openmetrics", openmetrics_path,
                     "OpenMetrics text exposition");
  options.add_string("flight", flight_path, "/debug/requests dump");
  if (const auto exit_code = options.parse_command(
          {argv + 1, static_cast<std::size_t>(argc - 1)}, "obs_check")) {
    return *exit_code;
  }
  if (metrics_path.empty() && trace_path.empty() &&
      openmetrics_path.empty() && flight_path.empty()) {
    std::cerr << "error: give at least one file to check\n"
              << options.usage("obs_check");
    return 2;
  }

  int rc = 0;
  try {
    if (!metrics_path.empty()) rc |= check_metrics(metrics_path);
    if (!trace_path.empty()) rc |= check_trace(trace_path);
    if (!openmetrics_path.empty()) rc |= check_openmetrics(openmetrics_path);
    if (!flight_path.empty()) rc |= check_flight(flight_path);
  } catch (const std::exception& error) {
    std::cerr << "obs_check: " << error.what() << '\n';
    return 1;
  }
  return rc;
}
