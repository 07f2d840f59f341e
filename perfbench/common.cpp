#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <sstream>
#include <stdexcept>

#include "bench.hpp"
#include "io/batch_stream.hpp"
#include "io/gzip.hpp"

namespace jembench {

Args::Args(int argc, char** argv) {
  for (int i = 2; i < argc; i += 2) {
    const std::string key = argv[i];
    if (key.size() < 3 || key.compare(0, 2, "--") != 0 || i + 1 >= argc) {
      throw std::invalid_argument("expected --key value pairs, got '" + key +
                                  "'");
    }
    values_[key.substr(2)] = argv[i + 1];
  }
}

std::string Args::str(const std::string& key) const {
  const auto it = values_.find(key);
  if (it == values_.end()) throw std::invalid_argument("missing --" + key);
  return it->second;
}

std::uint64_t Args::num(const std::string& key) const {
  return std::stoull(str(key));
}

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  if (frac == 0.0) return values[lo];
  if (std::isinf(values[hi])) return values[hi];
  return values[lo] + (values[hi] - values[lo]) * frac;
}

double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.compare(0, 6, "VmHWM:") == 0) {
      return std::stod(line.substr(6)) * 1024.0 / 1e6;  // the field is in KiB
    }
  }
  throw std::runtime_error("no VmHWM in /proc/self/status");
}

double cpu_seconds() {
  rusage usage{};
  if (getrusage(RUSAGE_SELF, &usage) != 0) {
    throw std::runtime_error("getrusage failed");
  }
  const auto seconds = [](const timeval& t) {
    return static_cast<double>(t.tv_sec) + static_cast<double>(t.tv_usec) / 1e6;
  };
  return seconds(usage.ru_utime) + seconds(usage.ru_stime);
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error("cannot open " + path);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return std::move(buffer).str();
}

void Metrics::set(const std::string& name, double value,
                  const std::string& unit) {
  entries_.push_back({name, {value, unit}});
}

std::string Metrics::to_json() const {
  std::string out = "{";
  char number[64];
  for (std::size_t i = 0; i < entries_.size(); ++i) {
    const auto& [name, entry] = entries_[i];
    // JSON has no infinity: a percentile every attempt missed prints 1e300.
    const double value = std::isfinite(entry.first) ? entry.first : 1e300;
    std::snprintf(number, sizeof number, "%.17g", value);
    if (i > 0) out += ',';
    out += '"' + name + "\":{\"value\":" + number + ",\"unit\":\"" +
           entry.second + "\"}";
  }
  return out + "}";
}

void print_result(bool correct, std::uint64_t attempted, std::uint64_t failed,
                  const Metrics& metrics) {
  std::cout << "{\"correct\":" << (correct ? "true" : "false")
            << ",\"attempted\":" << attempted << ",\"failed\":" << failed
            << ",\"metrics\":" << metrics.to_json() << '}' << std::endl;
}

jem::core::ServiceConfig service_config() {
  return jem::core::ServiceConfig::make().build();
}

void write_truth(const std::string& path, const Truth& truth) {
  std::ofstream out(path);
  for (const jem::sim::Interval& contig : truth.contigs) {
    out << "c\t" << contig.begin << '\t' << contig.end << '\n';
  }
  for (const jem::sim::ReadTruth& read : truth.reads) {
    out << "r\t" << read.interval.begin << '\t' << read.interval.end << '\t'
        << (read.reverse ? 1 : 0) << '\n';
  }
  if (!out) throw std::runtime_error("cannot write " + path);
}

Truth read_truth(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot open " + path);
  Truth truth;
  std::string tag;
  while (in >> tag) {
    jem::sim::Interval interval;
    in >> interval.begin >> interval.end;
    if (tag == "c") {
      truth.contigs.push_back(interval);
    } else if (tag == "r") {
      int reverse = 0;
      in >> reverse;
      truth.reads.push_back({interval, reverse != 0});
    } else {
      throw std::runtime_error(path + ": bad record tag '" + tag + "'");
    }
  }
  return truth;
}

jem::eval::TruthSet make_truth_set(const Truth& truth,
                                   const jem::core::MapParams& params) {
  return jem::eval::TruthSet(truth.contigs, truth.reads,
                             params.segment_length,
                             static_cast<std::uint32_t>(params.k));
}

void score(jem::eval::QualityCounts& counts, bool mapped, bool is_true,
           bool bench_has) {
  ++counts.segments;
  if (mapped) {
    ++counts.mapped;
    if (is_true) {
      ++counts.tp;
    } else {
      ++counts.fp;
      if (bench_has) ++counts.fn;  // the true hit was missed
    }
  } else if (bench_has) {
    ++counts.fn;
  } else {
    ++counts.tn;
  }
}

jem::io::SequenceSet load_prefix(const std::string& path, std::size_t limit) {
  std::istringstream in(jem::io::read_file_auto(path));
  jem::io::BatchStream stream(in, limit);
  jem::io::ReadBatch batch;
  if (!stream.next(batch)) return {};
  return std::move(batch.reads);
}

}  // namespace jembench
