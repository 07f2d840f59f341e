// `jembench map`: the map-ends-gz and map-tiled workloads (README.md). Both
// build the index from FASTA through the MappingEngine constructor, then run
// full mapping passes back to back for the measured interval and report
// medians. Every pass must reproduce the warm-up pass exactly, and the
// warm-up pass must match JemMapper::map_segment one segment at a time.
#include <algorithm>
#include <cstring>
#include <filesystem>
#include <iostream>
#include <memory>
#include <sstream>
#include <stdexcept>

#include "bench.hpp"
#include "core/end_segments.hpp"
#include "core/index_serde.hpp"
#include "io/artifact.hpp"
#include "io/batch_stream.hpp"
#include "io/fasta.hpp"
#include "io/gzip.hpp"
#include "io/mapping_writer.hpp"

namespace jembench {
namespace {

namespace core = jem::core;
namespace io = jem::io;

constexpr std::size_t kMinPasses = 4;
// Two mappers, as beside the streamed reader: a pass lasts over 1.5 s, and
// two of the host's four cores stay free.
constexpr std::size_t kTiledWorkers = 2;
constexpr std::size_t kSampleReads = 512;    // correctness + probe sample
constexpr std::size_t kCheckSegments = 256;  // re-mapped one at a time
constexpr std::size_t kKernelSegments = 512;

struct Pass {
  bool traced = false;
  double wall_s = 0.0;
  double read_file_ms = 0.0;  // traced streamed passes: file read
  double inflate_ms = 0.0;    // traced streamed passes: gzip_decompress
  double emit_ms = 0.0;       // traced streamed passes: record formatting
  core::EngineStats stats;
  std::vector<core::SegmentMapping> mappings;
};

/// End segments streamed from gzip FASTQ: read and inflate on this thread,
/// then the engine's reader -> bounded queue -> pool -> in-order emit
/// pipeline, with every record formatted as `jem map` writes it.
Pass pass_ends_gz(const core::MappingEngine& engine, const std::string& path,
                  bool traced) {
  Pass pass;
  pass.traced = traced;
  const Clock::time_point start = Clock::now();
  std::string text;
  if (traced) {
    const std::string compressed = read_file(path);
    const Clock::time_point inflate_start = Clock::now();
    pass.read_file_ms =
        std::chrono::duration<double, std::milli>(inflate_start - start)
            .count();
    text = io::gzip_decompress(compressed);
    pass.inflate_ms = seconds_since(inflate_start) * 1e3;
  } else {
    text = io::read_file_auto(path);
  }
  std::istringstream in(std::move(text));
  io::BatchStream stream(in, kBatchReads);
  core::MapRequest request;
  request.mode = core::MapMode::kEnds;
  request.backend = core::MapBackend::kPool;
  request.threads = kStreamWorkers;
  std::ostringstream output;
  const core::JemMapper& mapper = engine.mapper();
  pass.stats = engine.run_stream(
      stream, request, [&](const core::MappingEngine::BatchResult& result) {
        const Clock::time_point emit_start =
            traced ? Clock::now() : Clock::time_point{};
        io::write_mappings(output, mapper.to_mapping_lines(result.batch.reads,
                                                           result.mappings));
        if (traced) pass.emit_ms += seconds_since(emit_start) * 1e3;
        for (core::SegmentMapping mapping : result.mappings) {
          mapping.read += static_cast<io::SeqId>(result.batch.first_record);
          pass.mappings.push_back(mapping);
        }
      });
  pass.wall_s = seconds_since(start);
  return pass;
}

/// Containment mode over reads already in memory: the in-memory engine run.
/// No layer is timed inside it, so a traced pass differs only in its flag.
Pass pass_tiled(const core::MappingEngine& engine,
                const io::SequenceSet& reads, bool traced) {
  Pass pass;
  pass.traced = traced;
  core::MapRequest request;
  request.mode = core::MapMode::kTiled;
  request.backend = core::MapBackend::kPool;
  request.threads = kTiledWorkers;
  const Clock::time_point start = Clock::now();
  core::MapReport report = engine.run(reads, request);
  pass.wall_s = seconds_since(start);
  pass.stats = report.stats;
  pass.mappings = std::move(report.mappings);
  return pass;
}

std::uint64_t digest(const std::vector<core::SegmentMapping>& mappings) {
  std::string bytes(mappings.size() * 16, '\0');
  for (std::size_t i = 0; i < mappings.size(); ++i) {
    const core::SegmentMapping& m = mappings[i];
    const std::uint32_t fields[4] = {m.read, m.offset, m.result.subject,
                                     m.result.votes};
    std::memcpy(bytes.data() + 16 * i, fields, sizeof fields);
  }
  return io::xxh64(bytes);
}

/// End segments through eval::evaluate; tiles against the truth of their
/// own read interval (TruthSet::true_subjects_at), same accounting.
jem::eval::QualityCounts score_pass(const Pass& pass,
                                    const jem::eval::TruthSet& truth,
                                    bool tiled) {
  if (!tiled) return jem::eval::evaluate(pass.mappings, truth);
  jem::eval::QualityCounts counts;
  for (const core::SegmentMapping& m : pass.mappings) {
    const std::vector<io::SeqId> subjects =
        truth.true_subjects_at(m.read, m.offset, m.segment_length);
    const bool mapped = m.result.mapped();
    score(counts, mapped,
          mapped && std::find(subjects.begin(), subjects.end(),
                              m.result.subject) != subjects.end(),
          !subjects.empty());
  }
  return counts;
}

/// The first kCheckSegments segments of a pass, re-mapped one at a time
/// through JemMapper::map_segment, must equal the engine's output.
bool matches_single_shot(const core::JemMapper& mapper,
                         const io::SequenceSet& reads,
                         const std::vector<core::SegmentMapping>& mappings) {
  core::MapScratch scratch(mapper.subjects().size());
  std::size_t checked = 0;
  for (const core::SegmentMapping& m : mappings) {
    if (checked == kCheckSegments || m.read >= reads.size()) break;
    const std::string_view segment =
        reads.bases(m.read).substr(m.offset, m.segment_length);
    if (!(mapper.map_segment(segment, scratch) == m.result)) return false;
    ++checked;
  }
  return checked == kCheckSegments;
}

}  // namespace

int cmd_map(const Args& args) {
  const std::string workload = args.str("workload");
  const bool tiled = workload == "map-tiled";
  if (!tiled && workload != "map-ends-gz") {
    throw std::invalid_argument("unknown map workload '" + workload + "'");
  }
  const DataDir data{args.str("data")};
  const double seconds = static_cast<double>(args.num("seconds"));
  const bool trace = args.num("trace") != 0;
  const std::uint64_t seed = args.num("seed");
  const core::ServiceConfig config = service_config();
  const jem::eval::TruthSet truth =
      make_truth_set(read_truth(data.truth()), config.params);

  // Set-up: read the contigs, then sketch and freeze the index. It replaces
  // the previous engine, which is freed first, so peak memory holds one.
  std::unique_ptr<io::SequenceSet> subjects;
  std::unique_ptr<core::MappingEngine> engine;
  std::vector<double> setups;
  const auto set_up = [&] {
    engine.reset();
    subjects.reset();
    const Clock::time_point start = Clock::now();
    auto loaded = std::make_unique<io::SequenceSet>();
    io::load_into(data.contigs(), *loaded);
    auto built = std::make_unique<core::MappingEngine>(*loaded, config.params,
                                                       config.scheme);
    setups.push_back(seconds_since(start));
    subjects = std::move(loaded);
    engine = std::move(built);
  };
  set_up();

  // The tiled workload maps reads already in memory; the streamed one keeps
  // only a prefix, for the correctness and probe samples.
  io::SequenceSet reads;
  if (tiled) {
    io::load_into(data.reads(), reads);
  } else {
    reads = load_prefix(data.reads(), kSampleReads);
  }

  const auto run_pass = [&](bool traced) {
    return tiled ? pass_tiled(*engine, reads, traced)
                 : pass_ends_gz(*engine, data.reads(), traced);
  };

  // Warm-up pass: scored, and checked against single-shot mapping. Every
  // timed pass must reproduce it bit for bit.
  const Pass reference = run_pass(false);
  const std::uint64_t expected = digest(reference.mappings);
  const jem::eval::QualityCounts quality = score_pass(reference, truth, tiled);
  bool correct =
      matches_single_shot(engine->mapper(), reads, reference.mappings) &&
      quality.tp > 0;

  // Timed passes, each followed by a set-up, for the measured interval. The
  // host's speed drifts over tens of seconds; this way set-ups and passes
  // sample the same stretch of it, and each reported median spans the whole
  // interval. Every pass, on whichever rebuilt engine, must reproduce the
  // warm-up pass. A traced run alternates untraced and traced passes so the
  // tracing overhead is measured within the run.
  std::vector<Pass> passes;
  double pass_cpu_s = 0.0;
  const Clock::time_point measure_start = Clock::now();
  while (passes.size() < kMinPasses || seconds_since(measure_start) < seconds) {
    const double cpu_before = cpu_seconds();
    Pass pass = run_pass(trace && passes.size() % 2 == 1);
    pass_cpu_s += cpu_seconds() - cpu_before;
    if (digest(pass.mappings) != expected) correct = false;
    pass.mappings = {};
    passes.push_back(std::move(pass));
    set_up();
  }
  std::cerr << "passes (s):";
  for (const Pass& pass : passes) std::cerr << ' ' << pass.wall_s;
  std::cerr << "\nset-ups (s):";
  for (const double setup : setups) std::cerr << ' ' << setup;
  std::cerr << '\n';
  const double reads_mapped =
      static_cast<double>(reference.stats.reads * passes.size());
  const double cpu_ms_per_read = 1e3 * pass_cpu_s / reads_mapped;

  const auto walls = [&](bool traced) {
    std::vector<double> out;
    for (const Pass& pass : passes) {
      if (pass.traced == traced) out.push_back(pass.wall_s);
    }
    return out;
  };
  auto attempted = static_cast<std::uint64_t>(reads_mapped);
  std::uint64_t failed = 0;
  Metrics metrics;
  if (!trace) {
    const std::vector<double> wall = walls(false);
    const auto reads_per_pass = static_cast<double>(reference.stats.reads);
    metrics.set("setup_s", median(setups), "s");
    metrics.set("map_wall_s", median(wall), "s");
    metrics.set("throughput_per_s", reads_per_pass / median(wall), "1/s");
    metrics.set("cpu_ms_per_op", cpu_ms_per_read, "ms");
    metrics.set("peak_rss_mb", peak_rss_mb(), "MB");
    metrics.set("precision", 100.0 * quality.precision(), "%");
    metrics.set("recall", 100.0 * quality.recall(), "%");
  } else {
    const double untraced = median(walls(false));
    const double traced = median(walls(true));
    metrics.set("trace.overhead_pct", 100.0 * (traced - untraced) / untraced,
                "%");

    // Unaccounted share of a pass. Streamed: the reader thread is the
    // blocking chain (file read, inflate, parse); tiled: the pool's idle
    // share (map CPU over workers x wall).
    std::vector<double> unaccounted;
    for (const Pass& pass : passes) {
      if (!tiled && !pass.traced) continue;  // only traced passes split
      const double accounted_s =
          tiled ? pass.stats.map_s / static_cast<double>(kTiledWorkers)
                : (pass.read_file_ms + pass.inflate_ms) / 1e3 +
                      pass.stats.read_s;
      unaccounted.push_back(100.0 * (1.0 - accounted_s / pass.wall_s));
    }
    metrics.set("trace.unaccounted_pct", median(std::move(unaccounted)), "%");

    std::vector<std::string_view> segments;
    std::vector<std::string> bodies;
    for (io::SeqId id = 0; id < reads.size(); ++id) {
      for (const core::EndSegment& end : core::extract_end_segments(
               id, reads.bases(id), config.params.segment_length)) {
        bodies.emplace_back(end.bases);
      }
    }
    for (const core::SegmentMapping& m : reference.mappings) {
      if (segments.size() == kKernelSegments || m.read >= reads.size()) break;
      segments.push_back(
          reads.bases(m.read).substr(m.offset, m.segment_length));
    }

    probe_io(data.reads(), metrics);
    if (tiled) {
      probe_emit(engine->mapper(), reads, reference.mappings, metrics);
      (void)probe_engine(*engine, data.reads(), core::MapMode::kTiled,
                         metrics);
    } else {
      std::vector<double> emit_ms;
      std::vector<const Pass*> traced_passes;
      for (const Pass& pass : passes) {
        if (pass.traced) {
          emit_ms.push_back(pass.emit_ms);
          traced_passes.push_back(&pass);
        }
      }
      metrics.set("io.emit_ms", median(std::move(emit_ms)), "ms");
      // Engine stats of the traced pass with the median wall time.
      std::sort(traced_passes.begin(), traced_passes.end(),
                [](const Pass* a, const Pass* b) {
                  return a->wall_s < b->wall_s;
                });
      put_engine(traced_passes[traced_passes.size() / 2]->stats, metrics);
    }
    // The JEMIDX1 artifact is written by this build from the engine just
    // built, never taken from the input cache, so that it always matches
    // the reader under test.
    jem::core::save_index(data.index(), engine->mapper().table(),
                          config.params, config.scheme, *subjects);
    probe_index(*subjects, data.index(), metrics);
    probe_kernel(engine->mapper(), segments, metrics);
    const ProbeCounts served =
        probe_serve(*subjects, data.index(), bodies, seed, metrics);
    std::filesystem::remove(data.index());
    attempted += served.attempted;
    failed += served.failed;
    correct = correct && served.correct && served.failed == 0;
  }
  print_result(correct, attempted, failed, metrics);
  return 0;
}

}  // namespace jembench
