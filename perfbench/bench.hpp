// Shared plumbing of the jembench program (README.md in this directory):
// argument parsing, order statistics, the result line every subcommand
// prints, the generated-dataset file layout, and the layer probes of the
// traced runs.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "core/engine.hpp"
#include "core/mapper.hpp"
#include "core/service.hpp"
#include "eval/metrics.hpp"
#include "eval/truth.hpp"
#include "io/sequence_set.hpp"
#include "sim/contigs.hpp"
#include "sim/hifi_reads.hpp"

namespace jembench {

using Clock = std::chrono::steady_clock;

/// Streaming shape shared by every streamed run: reads per batch (as
/// `jem map --batch 128`) and map workers beside the reader thread. Reader
/// plus workers leave one of the host's four cores free, so that a
/// neighbour's burst does not land on the reader's critical path.
inline constexpr std::size_t kBatchReads = 128;
inline constexpr std::size_t kStreamWorkers = 2;

/// `--key value` options following the subcommand name.
class Args {
 public:
  Args(int argc, char** argv);

  [[nodiscard]] std::string str(const std::string& key) const;
  [[nodiscard]] std::uint64_t num(const std::string& key) const;

 private:
  std::map<std::string, std::string> values_;
};

[[nodiscard]] double seconds_since(Clock::time_point start);

/// Linearly interpolated quantile (q in [0, 1]); +inf values sort last.
[[nodiscard]] double quantile(std::vector<double> values, double q);
[[nodiscard]] inline double median(std::vector<double> values) {
  return quantile(std::move(values), 0.5);
}

/// Peak resident set size of this process (VmHWM), in MB (10^6 bytes).
[[nodiscard]] double peak_rss_mb();

/// CPU time (user + system) this process has used so far, in seconds.
[[nodiscard]] double cpu_seconds();

[[nodiscard]] std::string read_file(const std::string& path);

/// Named values with units: the "metrics" object of the result line.
class Metrics {
 public:
  void set(const std::string& name, double value, const std::string& unit);
  [[nodiscard]] std::string to_json() const;

 private:
  std::vector<std::pair<std::string, std::pair<double, std::string>>>
      entries_;
};

/// Prints the result line every workload subcommand ends with.
void print_result(bool correct, std::uint64_t attempted, std::uint64_t failed,
                  const Metrics& metrics);

/// The mapping configuration of every workload: the paper's defaults
/// (k = 16, w = 100, T = 30, l = 1000).
[[nodiscard]] jem::core::ServiceConfig service_config();

/// File layout of one generated dataset directory (written by gen.cpp).
struct DataDir {
  std::string dir;

  [[nodiscard]] std::string contigs() const { return dir + "/contigs.fa"; }
  [[nodiscard]] std::string reads() const { return dir + "/reads.fq.gz"; }
  /// Written by each traced run from the engine it built (map_workloads.cpp).
  [[nodiscard]] std::string index() const { return dir + "/index.jemidx"; }
  [[nodiscard]] std::string truth() const { return dir + "/truth.tsv"; }
};

/// Simulated ground truth: the genome interval of every contig and read.
struct Truth {
  std::vector<jem::sim::Interval> contigs;
  std::vector<jem::sim::ReadTruth> reads;
};
void write_truth(const std::string& path, const Truth& truth);
[[nodiscard]] Truth read_truth(const std::string& path);
[[nodiscard]] jem::eval::TruthSet make_truth_set(
    const Truth& truth, const jem::core::MapParams& params);

/// Adds one scored segment with the paper's accounting (eval/metrics.hpp).
void score(jem::eval::QualityCounts& counts, bool mapped, bool is_true,
           bool bench_has);

/// Parses the first `limit` records of a FASTA/FASTQ file (gzip or plain).
[[nodiscard]] jem::io::SequenceSet load_prefix(const std::string& path,
                                               std::size_t limit);

// --- Layer probes of the traced runs (layers.cpp) ---------------------------

/// io: inflate a gzip FASTQ file, then parse every record with BatchStream.
void probe_io(const std::string& gz_path, Metrics& out);

/// io: format `mappings` as TSV records (io.emit_ms).
void probe_emit(const jem::core::JemMapper& mapper,
                const jem::io::SequenceSet& reads,
                const std::vector<jem::core::SegmentMapping>& mappings,
                Metrics& out);

/// core index: sketch + freeze `subjects`, then load the JEMIDX1 artifact.
void probe_index(const jem::io::SequenceSet& subjects,
                 const std::string& artifact, Metrics& out);

/// core kernel: per-segment cost of each kernel stage over `segments`.
void probe_kernel(const jem::core::JemMapper& mapper,
                  const std::vector<std::string_view>& segments,
                  Metrics& out);

/// core engine: one streamed run of `mode` over the gzip FASTQ file (reader
/// thread + kStreamWorkers) and its public EngineStats. Returns the
/// mappings with global read ids.
std::vector<jem::core::SegmentMapping> probe_engine(
    const jem::core::MappingEngine& engine, const std::string& gz_path,
    jem::core::MapMode mode, Metrics& out);

/// engine.* metrics from one streamed run's EngineStats.
void put_engine(const jem::core::EngineStats& stats, Metrics& out);

// --- Serve probe of the traced runs (serve_probe.cpp) ---------------------

/// Requests the serve probe sent and how they went.
struct ProbeCounts {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;  // non-200 statuses and transport errors
  bool correct = true;       // every /map answer equals MappingService::map
};

/// serve layers, gen.lag_p90_ms: an in-process server on `artifact` (which
/// must load), sent 2000 Zipf-popular `bodies` open-loop at 1000 req/s from
/// at most four threads, with a reload every second. The serve.* metrics
/// are set only when no request failed.
[[nodiscard]] ProbeCounts probe_serve(const jem::io::SequenceSet& subjects,
                                      const std::string& artifact,
                                      const std::vector<std::string>& bodies,
                                      std::uint64_t seed, Metrics& out);

// --- Subcommands ------------------------------------------------------------

int cmd_gen(const Args& args);
int cmd_map(const Args& args);

}  // namespace jembench
