// Layer probes of the traced runs. Each one times calls into a single
// layer's public functions, from this file, on the workload's own data, so
// the per-layer figures need no instrumentation inside the program
// (README.md, "Per-layer metrics").
#include <algorithm>
#include <filesystem>
#include <optional>
#include <span>
#include <sstream>
#include <stdexcept>

#include "bench.hpp"
#include "core/index_serde.hpp"
#include "core/minimizer.hpp"
#include "core/sketch.hpp"
#include "io/batch_stream.hpp"
#include "io/gzip.hpp"
#include "io/mapping_writer.hpp"

namespace jembench {
namespace {

namespace core = jem::core;
namespace io = jem::io;

constexpr int kKernelReps = 9;

/// Wall time of one call of `fn`, in milliseconds.
template <class Fn>
double time_ms(Fn&& fn) {
  const Clock::time_point start = Clock::now();
  fn();
  return seconds_since(start) * 1e3;
}

/// Median wall time of `reps` calls of `fn`, in milliseconds.
template <class Fn>
double median_ms(int reps, Fn&& fn) {
  std::vector<double> times;
  for (int i = 0; i < reps; ++i) times.push_back(time_ms(fn));
  return median(std::move(times));
}

}  // namespace

void probe_io(const std::string& gz_path, Metrics& out) {
  const std::string compressed = read_file(gz_path);
  std::string text;
  const double inflate_ms =
      median_ms(3, [&] { text = io::gzip_decompress(compressed); });

  std::vector<double> parse_ms;
  std::uint64_t records = 0;
  for (int i = 0; i < 3; ++i) {
    std::istringstream in(text);
    const Clock::time_point start = Clock::now();
    io::BatchStream stream(in, kBatchReads);
    io::ReadBatch batch;
    records = 0;
    while (stream.next(batch)) records += batch.reads.size();
    parse_ms.push_back(seconds_since(start) * 1e3);
  }
  out.set("io.inflate_ms", inflate_ms, "ms");
  out.set("io.inflate_mb_per_s",
          static_cast<double>(text.size()) / 1e3 / inflate_ms, "MB/s");
  out.set("io.parse_ms", median(std::move(parse_ms)), "ms");
  out.set("io.parse_records", static_cast<double>(records), "count");
}

void probe_emit(const core::JemMapper& mapper, const io::SequenceSet& reads,
                const std::vector<core::SegmentMapping>& mappings,
                Metrics& out) {
  out.set("io.emit_ms", median_ms(3, [&] {
            std::ostringstream sink;
            io::write_mappings(sink, mapper.to_mapping_lines(reads, mappings));
          }),
          "ms");
}

void probe_index(const io::SequenceSet& subjects, const std::string& artifact,
                 Metrics& out) {
  const core::ServiceConfig config = service_config();
  std::optional<core::MappingEngine> engine;
  const Clock::time_point start = Clock::now();
  engine.emplace(subjects, config.params, config.scheme);
  const double build_ms = seconds_since(start) * 1e3;
  const std::size_t entries = engine->mapper().table().size();
  engine.reset();

  std::vector<double> load_ms;
  for (int i = 0; i < 3; ++i) {
    const Clock::time_point load_start = Clock::now();
    const core::SketchTable table =
        core::load_index(artifact, config.params, config.scheme, subjects);
    load_ms.push_back(seconds_since(load_start) * 1e3);
    if (table.size() != entries) {
      throw std::runtime_error("artifact disagrees with the index built "
                               "from the contigs");
    }
  }
  out.set("core.index.build_ms", build_ms, "ms");
  out.set("core.index.entries", static_cast<double>(entries), "count");
  out.set("core.index.load_ms", median(std::move(load_ms)), "ms");
  out.set("core.index.artifact_mb",
          static_cast<double>(std::filesystem::file_size(artifact)) / 1e6,
          "MB");
}

void probe_kernel(const core::JemMapper& mapper,
                  const std::vector<std::string_view>& segments,
                  Metrics& out) {
  if (segments.empty()) throw std::invalid_argument("probe_kernel: no segments");
  const core::MapParams& params = mapper.params();
  const core::MinimizerParams scan{params.k, params.w, params.ordering};
  // Milliseconds over the whole sample -> nanoseconds per segment.
  const double ns_per_segment = 1e6 / static_cast<double>(segments.size());

  core::MinimizerScratch scan_scratch;
  std::vector<core::Minimizer> minimizers;
  core::SketchScratch sketch_scratch;
  core::FlatSketch sketch;
  core::MapScratch scratch(mapper.subjects().size());

  // Lookups resolve sketches computed beforehand: one lookup_many per trial.
  std::vector<core::FlatSketch> sketches(segments.size());
  std::size_t widest = 0;
  for (std::size_t i = 0; i < segments.size(); ++i) {
    core::make_sketch(segments[i], params, mapper.scheme(), mapper.hashes(),
                      sketch_scratch, sketches[i]);
    for (int t = 0; t < sketches[i].trials(); ++t) {
      widest = std::max(widest, sketches[i].trial(t).size());
    }
  }
  const core::FlatSketchIndex& index = mapper.table().flat();
  std::vector<std::span<const io::SeqId>> postings(widest);
  const auto lookup = [&](const core::FlatSketch& s, int t) {
    const std::span<const core::KmerCode> kmers = s.trial(t);
    (void)index.lookup_many(t, kmers,
                            std::span(postings).first(kmers.size()));
    return kmers.size();
  };

  std::uint64_t lookups = 0;
  std::uint64_t hits = 0;
  std::uint64_t candidates = 0;
  std::vector<io::SeqId> touched;
  for (const core::FlatSketch& s : sketches) {
    touched.clear();
    for (int t = 0; t < s.trials(); ++t) {
      const std::size_t n = lookup(s, t);
      for (std::size_t j = 0; j < n; ++j) {
        ++lookups;
        if (!postings[j].empty()) ++hits;
        touched.insert(touched.end(), postings[j].begin(), postings[j].end());
      }
    }
    std::sort(touched.begin(), touched.end());
    candidates += static_cast<std::uint64_t>(
        std::unique(touched.begin(), touched.end()) - touched.begin());
  }

  // Every repetition times all four stages back to back, so that a drift
  // of the host's speed moves them together and the differences (vote,
  // hashing) stay meaningful; each stage reports its median.
  std::vector<double> minimizer_ms;
  std::vector<double> sketch_ms;
  std::vector<double> lookup_ms;
  std::vector<double> map_ms;
  std::vector<double> vote_ms;
  for (int rep = 0; rep < kKernelReps; ++rep) {
    minimizer_ms.push_back(time_ms([&] {
      for (const std::string_view segment : segments) {
        core::minimizer_scan(segment, scan, scan_scratch, minimizers);
      }
    }));
    sketch_ms.push_back(time_ms([&] {
      for (const std::string_view segment : segments) {
        core::make_sketch(segment, params, mapper.scheme(), mapper.hashes(),
                          sketch_scratch, sketch);
      }
    }));
    lookup_ms.push_back(time_ms([&] {
      for (const core::FlatSketch& s : sketches) {
        for (int t = 0; t < s.trials(); ++t) (void)lookup(s, t);
      }
    }));
    map_ms.push_back(time_ms([&] {
      for (const std::string_view segment : segments) {
        (void)mapper.map_segment(segment, scratch);
      }
    }));
    vote_ms.push_back(map_ms.back() - sketch_ms.back() - lookup_ms.back());
  }

  out.set("core.minimizer.ns", median(std::move(minimizer_ms)) * ns_per_segment,
          "ns");
  out.set("core.sketch.ns", median(std::move(sketch_ms)) * ns_per_segment,
          "ns");
  out.set("core.lookup.ns", median(std::move(lookup_ms)) * ns_per_segment,
          "ns");
  out.set("core.lookup.hit_ratio",
          static_cast<double>(hits) /
              static_cast<double>(std::max<std::uint64_t>(1, lookups)),
          "ratio");
  out.set("core.vote.ns", median(std::move(vote_ms)) * ns_per_segment, "ns");
  out.set("core.map_segment.ns", median(std::move(map_ms)) * ns_per_segment,
          "ns");
  out.set("core.candidates_per_segment",
          static_cast<double>(candidates) /
              static_cast<double>(segments.size()),
          "count");
}

std::vector<core::SegmentMapping> probe_engine(
    const core::MappingEngine& engine, const std::string& gz_path,
    core::MapMode mode, Metrics& out) {
  std::istringstream in(io::read_file_auto(gz_path));
  io::BatchStream stream(in, kBatchReads);
  core::MapRequest request;
  request.mode = mode;
  request.backend = core::MapBackend::kPool;
  request.threads = kStreamWorkers;
  std::vector<core::SegmentMapping> mappings;
  const core::EngineStats stats = engine.run_stream(
      stream, request, [&](const core::MappingEngine::BatchResult& result) {
        for (core::SegmentMapping mapping : result.mappings) {
          mapping.read += static_cast<io::SeqId>(result.batch.first_record);
          mappings.push_back(mapping);
        }
      });
  put_engine(stats, out);
  return mappings;
}

void put_engine(const core::EngineStats& stats, Metrics& out) {
  out.set("engine.read_s", stats.read_s, "s");
  out.set("engine.map_cpu_s", stats.map_s, "s");
  out.set("engine.queue_wait_s", stats.queue_wait_s, "s");
  out.set("engine.worker_busy_share",
          (stats.map_s + stats.emit_s) /
              (stats.wall_s * static_cast<double>(kStreamWorkers)),
          "ratio");
}

}  // namespace jembench
