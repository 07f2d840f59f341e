// `jem map` — the batch mapping workflow (and the whole body of the legacy
// `jem_map` binary, which now shims onto run_map): maps long reads
// (FASTA/FASTQ) to contigs (FASTA) and writes a tab-separated mapping.
// Runs sequentially, threaded, or on the simulated distributed runtime.
//
//   jem map --subjects contigs.fa --queries reads.fq --output out.tsv
//           [--k 16] [--w 100] [--trials 30] [--segment 1000]
//           [--ranks 4 [--partitioned] | --threads 8] [--scheme jem|minhash]
//           [--save-index idx | --load-index idx]
//           [--batch N --checkpoint run.ckpt [--resume]]
//           [--metrics out.json] [--trace out.trace.json] [--progress]
//
// --ranks runs the distributed S1-S4 driver on reads held in memory, one
// thread per rank; the engine-path flags (--tiled, --threads, --batch,
// --checkpoint, --resume, --save-index, --load-index) are usage errors
// beside it, as is --partitioned without it. --checkpoint needs --batch,
// --resume needs --checkpoint, and --batch needs a query file (not --demo).
//
// With --demo (no input files) it simulates a small dataset, maps it, and
// writes the mapping. Parameter assembly goes through the
// core::ServiceConfig builder (core/service.hpp), so an invalid value —
// including an unknown --ordering or --scheme name — is a structured
// diagnostic naming the field, and exits with the uniform usage code 2.
#include <atomic>
#include <chrono>
#include <fstream>
#include <iostream>
#include <optional>
#include <sstream>
#include <thread>
#include <utility>

#include "cli/cli.hpp"
#include "core/jem.hpp"
#include "core/service.hpp"
#include "io/gzip.hpp"
#include "io/stream_reader.hpp"
#include "obs/metrics.hpp"
#include "obs/obs.hpp"
#include "obs/trace.hpp"
#include "util/log.hpp"
#include "util/options.hpp"
#include "util/thread_pool.hpp"
#include "util/timer.hpp"

namespace jem::cli {

namespace {

/// Largest --ranks value: the simulated runtime starts one thread per rank,
/// and each replicated rank holds its own copy of the sketch table.
constexpr std::uint64_t kMaxRanks = 256;

}  // namespace

int run_map(std::span<const char* const> args, std::string_view program) {
  std::string subjects_path;
  std::string queries_path;
  std::string output_path = "mappings.tsv";
  SketchFlags sketch;
  std::optional<std::uint64_t> ranks;
  std::uint64_t threads = 0;
  bool demo = false;
  bool tiled = false;
  std::uint64_t batch = 0;
  std::string save_index_path;
  std::string load_index_path;
  std::string checkpoint_path;
  bool resume = false;
  std::string metrics_path;
  std::string trace_path;
  bool progress = false;

  util::Options options;
  options.add_string("subjects", subjects_path, "contigs FASTA path");
  options.add_string("queries", queries_path, "long-read FASTA/FASTQ path");
  options.add_string("output", output_path, "output mapping TSV path");
  sketch.add_to(options);
  options.add_uint("ranks", ranks,
                   "run distributed on this many ranks, 1 to " +
                       std::to_string(kMaxRanks) +
                       " (one thread per rank)");
  bool partitioned = false;
  options.add_flag("partitioned", partitioned,
                   "with --ranks: shard the sketch table by k-mer instead "
                   "of replicating it (less memory, more communication)");
  options.add_uint("threads", threads,
                   "map with this many threads (multi-member .gz input is "
                   "inflated on up to one thread per member regardless)");
  options.add_flag("demo", demo, "simulate inputs instead of reading files");
  options.add_flag("tiled", tiled,
                   "containment mode: tile whole reads with l-length "
                   "segments (finds contigs inside read interiors)");
  options.add_uint("batch", batch,
                   "map queries in batches of N reads as they are parsed "
                   "and write the output batch by batch (the inflated query "
                   "file is still held whole; combine with --threads for "
                   "the pipelined pool)");
  options.add_string("save-index", save_index_path,
                     "write the subject sketch index (checksummed artifact) "
                     "to this file");
  options.add_string("load-index", load_index_path,
                     "reuse an index written by --save-index (any defect is "
                     "reported and the index rebuilt from FASTA)");
  options.add_string("checkpoint", checkpoint_path,
                     "with --batch: journal batch progress to this file so "
                     "an interrupted run can --resume");
  options.add_flag("resume", resume,
                   "continue a checkpointed run from its journal (falls "
                   "back to a fresh run when the journal is unusable)");
  options.add_string("metrics", metrics_path,
                     "write a metrics-registry JSON snapshot here "
                     "(docs/observability.md)");
  options.add_string("trace", trace_path,
                     "write a Chrome trace_event JSON here (load in "
                     "Perfetto / chrome://tracing)");
  options.add_flag("progress", progress,
                   "print a live progress line (segments/s, ETA, queue "
                   "depth) to stderr");
  if (const auto exit_code = options.parse_command(args, program)) {
    return *exit_code;
  }
  if (ranks) {
    if (*ranks < 1 || *ranks > kMaxRanks) {
      std::cerr << "error: --ranks must be in [1, " << kMaxRanks << "]\n";
      return kExitUsage;
    }
    const std::pair<bool, const char*> engine_only[] = {
        {tiled, "--tiled"},
        {threads != 0, "--threads"},
        {batch != 0, "--batch"},
        {!checkpoint_path.empty(), "--checkpoint"},
        {resume, "--resume"},
        {!save_index_path.empty(), "--save-index"},
        {!load_index_path.empty(), "--load-index"}};
    for (const auto& [given, flag] : engine_only) {
      if (given) {
        std::cerr << "error: " << flag << " does not apply with --ranks\n";
        return kExitUsage;
      }
    }
  } else if (partitioned) {
    std::cerr << "error: --partitioned needs --ranks\n";
    return kExitUsage;
  } else if (!checkpoint_path.empty() && batch == 0) {
    std::cerr << "error: --checkpoint needs --batch\n";
    return kExitUsage;
  } else if (resume && checkpoint_path.empty()) {
    std::cerr << "error: --resume needs --checkpoint\n";
    return kExitUsage;
  } else if (batch != 0 && demo) {
    std::cerr << "error: --batch does not apply with --demo (no query file "
                 "to stream)\n";
    return kExitUsage;
  }

  io::SequenceSet subjects;
  io::SequenceSet reads;
  try {
    if (demo) {
      make_demo_dataset(sketch.seed, subjects, reads);
    } else {
      if (subjects_path.empty() || queries_path.empty()) {
        std::cerr << "error: --subjects and --queries are required "
                     "(or use --demo)\n"
                  << options.usage(program);
        return kExitUsage;
      }
      io::load_into(subjects_path, subjects);
      if (batch == 0) io::load_into(queries_path, reads);
    }
  } catch (const std::exception& error) {
    std::cerr << "input error: " << error.what() << '\n';
    return kExitRuntime;
  }

  // One validated assembly for params + scheme (core/service.hpp): an
  // out-of-range value or unknown --ordering/--scheme name is a structured
  // ServiceError naming the field, and a usage error (exit 2) everywhere.
  const std::optional<core::ServiceConfig> service_config = sketch.build();
  if (!service_config) return kExitUsage;
  const core::MapParams& params = service_config->params;
  const core::SketchScheme scheme = service_config->scheme;

  util::log_info() << "subjects=" << subjects.size()
                   << " queries=" << reads.size() << " k=" << sketch.k
                   << " w=" << sketch.w << " T=" << sketch.trials
                   << " l=" << sketch.segment;

  // Observability sinks: one registry + tracer for the whole invocation.
  // IO-layer counters (io.*) land in the default registry, so it doubles as
  // the run's registry whenever any obs output is requested.
  const bool want_metrics = !metrics_path.empty() || progress;
  obs::Registry& registry = obs::default_registry();
  std::optional<obs::Tracer> tracer;
  if (!trace_path.empty()) tracer.emplace(1 << 16, "jem_map");
  obs::ObsHooks obs;
  if (want_metrics) obs.metrics = &registry;
  if (tracer) obs.tracer = &*tracer;

  // Live progress: a sampler thread reads the registry (engine.batch.reads
  // histogram accumulates as batches finish; the queue gauge tracks
  // backpressure) and repaints one stderr line.
  std::atomic<bool> progress_stop{false};
  std::thread progress_thread;
  if (progress) {
    const std::uint64_t total_reads = reads.size();  // 0 when streaming
    progress_thread = std::thread([&registry, &progress_stop, total_reads] {
      util::WallTimer progress_timer;
      while (!progress_stop.load(std::memory_order_relaxed)) {
        std::this_thread::sleep_for(std::chrono::milliseconds(250));
        const obs::MetricsSnapshot snap = registry.snapshot();
        const obs::MetricValue* batches = snap.find("engine.batch.reads");
        const obs::MetricValue* depth = snap.find("engine.queue.depth");
        const std::uint64_t done = batches != nullptr ? batches->sum : 0;
        const double elapsed = progress_timer.elapsed_s();
        const double rate = elapsed > 0.0
                                ? static_cast<double>(done) / elapsed
                                : 0.0;
        std::ostringstream line;
        line << "progress: " << done << " reads, "
             << static_cast<std::uint64_t>(rate) << " reads/s";
        if (total_reads > 0 && rate > 0.0 && done < total_reads) {
          line << ", ETA "
               << static_cast<std::uint64_t>(
                      static_cast<double>(total_reads - done) / rate)
               << " s";
        }
        if (depth != nullptr) line << ", queue depth " << depth->level;
        std::cerr << '\r' << line.str() << std::flush;
      }
      std::cerr << '\n';
    });
  }
  const auto stop_progress = [&] {
    if (progress_thread.joinable()) {
      progress_stop.store(true);
      progress_thread.join();
    }
  };
  // Joins the sampler on every exit path (early error returns included).
  struct ProgressGuard {
    const decltype(stop_progress)& stop;
    ~ProgressGuard() { stop(); }
  } progress_guard{stop_progress};

  // Writes the requested metrics/trace files; called on every successful
  // exit path.
  const auto write_obs_outputs = [&] {
    if (!metrics_path.empty()) {
      std::ofstream out(metrics_path);
      out << registry.snapshot().to_json() << '\n';
      if (out) {
        util::log_info() << "wrote metrics snapshot to " << metrics_path;
      } else {
        std::cerr << "warning: cannot write " << metrics_path << '\n';
      }
    }
    if (tracer) {
      std::ofstream out(trace_path);
      out << tracer->snapshot().to_chrome_json() << '\n';
      if (out) {
        util::log_info() << "wrote Chrome trace to " << trace_path
                         << " (open in Perfetto or chrome://tracing)";
      } else {
        std::cerr << "warning: cannot write " << trace_path << '\n';
      }
    }
  };

  util::WallTimer timer;
  // In-memory and distributed runs collect their lines and write them at
  // the end; a streamed run writes each batch as it is emitted. Both tally
  // the records for the summary line.
  std::vector<io::MappingLine> lines;
  bool streamed = false;
  std::uint64_t records = 0;
  std::uint64_t mapped = 0;
  const auto tally = [&](const std::vector<io::MappingLine>& written) {
    records += written.size();
    for (const io::MappingLine& line : written) {
      if (line.mapped()) ++mapped;
    }
  };
  if (ranks) {
    const int rank_count = static_cast<int>(*ranks);
    const core::DistributedResult result =
        partitioned
            ? core::run_distributed_partitioned(subjects, reads, params,
                                                rank_count, scheme, {}, obs)
            : core::run_distributed(subjects, reads, params, rank_count,
                                    scheme, /*threads_per_rank=*/1, {}, obs);
    const core::JemMapper name_resolver(subjects, params, scheme,
                                        core::SketchTable(params.trials));
    lines = name_resolver.to_mapping_lines(reads, result.mappings);
    util::log_info() << "distributed (" << rank_count << " ranks): total "
                     << result.report.total_s() << " s, allgather "
                     << result.report.allgather_s << " s";
    for (const core::RankStageTimes& rank : result.report.per_rank) {
      util::log_info() << "  rank " << rank.rank << ": sketch "
                       << rank.sketch_s << " s, allgather "
                       << rank.allgather_s << " s, build " << rank.build_s
                       << " s, map " << rank.map_s << " s";
    }
  } else {
    std::optional<core::MappingEngine> engine;
    bool loaded_index = false;
    if (!load_index_path.empty()) {
      try {
        engine.emplace(subjects, params, scheme,
                       core::load_index(load_index_path, params, scheme,
                                        subjects));
        loaded_index = true;
        util::log_info() << "loaded sketch index from " << load_index_path
                         << " (build skipped)";
      } catch (const io::ArtifactError& error) {
        // A bad artifact is never fatal: report why and rebuild from FASTA.
        util::log_info() << "index " << load_index_path << " rejected ("
                         << error.what() << "); rebuilding from FASTA";
      }
    }
    if (!engine) engine.emplace(subjects, params, scheme);
    if (!save_index_path.empty() && !loaded_index) {
      try {
        core::save_index(save_index_path, engine->mapper().table(), params,
                         scheme, subjects);
        util::log_info() << "saved sketch index to " << save_index_path;
      } catch (const io::ArtifactError& error) {
        std::cerr << "error: cannot save index: " << error.what() << '\n';
        return kExitRuntime;
      }
    }

    core::MapRequest request;
    request.mode = tiled ? core::MapMode::kTiled : core::MapMode::kEnds;
    request.backend =
        threads > 1 ? core::MapBackend::kPool : core::MapBackend::kSerial;
    request.threads = threads;
    request.obs = obs;

    core::EngineStats stats;
    std::optional<io::MappingOutput> output;
    std::optional<io::CheckpointWriter> journal;
    try {
      if (batch > 0) {
        // Streamed: the engine parses batches on this thread and maps them
        // on the pool behind a bounded queue; the sink appends each batch,
        // in input order, to <output>.partial, published atomically at the
        // end. The whole inflated query file is still held in memory, once
        // (read_file_auto, then moved into the stream), and parse errors
        // surface from run_stream. --checkpoint makes the sink journal every
        // batch after syncing its bytes, so a killed run resumes past the
        // journal and publishes the bytes of an uninterrupted run
        // (docs/persistence.md).
        streamed = true;
        std::string query_data = io::read_file_auto(queries_path);
        io::JournalFingerprint fp;
        if (!checkpoint_path.empty()) {
          // Binds the journal to this exact run: mapping parameters +
          // scheme, subject set, query bytes, and the request shape that
          // determines batch boundaries and output layout.
          fp.words[0] = core::params_digest(params, scheme);
          fp.words[1] = core::subjects_digest(subjects);
          fp.words[2] = io::xxh64(query_data);
          fp.words[3] = io::xxh64(std::string(tiled ? "tiled" : "ends") +
                                  ";batch=" + std::to_string(batch));
        }
        std::istringstream stream(std::move(query_data));
        io::BatchStream batches(stream, batch);
        if (resume) {
          try {
            const io::ResumePoint point =
                io::read_journal(checkpoint_path, fp);
            output.emplace(output_path, point.output_bytes,
                           point.output_hash);
            journal.emplace(
                io::CheckpointWriter::reopen(checkpoint_path, fp, point));
            const std::uint64_t skipped = batches.skip(point.batches_done);
            util::log_info()
                << "resumed at batch " << point.batches_done << " ("
                << skipped << " reads already mapped"
                << (point.torn_records != 0 ? ", torn journal tail discarded"
                                            : "")
                << ")";
          } catch (const io::ArtifactError& error) {
            util::log_info() << "cannot resume (" << error.what()
                             << "); restarting from scratch";
            journal.reset();
            output.reset();
          }
        }
        if (!output) {
          output.emplace(output_path);
          if (!checkpoint_path.empty()) {
            journal.emplace(
                io::CheckpointWriter::create(checkpoint_path, fp));
          }
        }
        if (journal) {
          journal->set_output_state([&] { return output->state(); });
        }

        const core::JemMapper& mapper = engine->mapper();
        stats = engine->run_stream(
            batches, request,
            [&](const core::MappingEngine::BatchResult& result) {
              const std::vector<io::MappingLine> batch_lines =
                  mapper.to_mapping_lines(result.batch.reads, result.mappings);
              std::ostringstream chunk;
              io::write_mappings(chunk, batch_lines);
              output->append(std::move(chunk).str());
              tally(batch_lines);
              if (journal) {
                // Sync before the journal append: a journal record must
                // never claim bytes the disk does not have.
                output->sync();
                journal->append_batch(result.batch.index,
                                      result.batch.first_record +
                                          result.batch.reads.size());
              }
            });
        output->publish();
        util::log_info() << "streamed " << stats.reads
                         << " reads in batches of " << batch;
        if (journal) {
          journal->close();
          io::remove_journal(checkpoint_path);
        }
      } else {
        core::MapReport report = engine->run(reads, request);
        lines = engine->mapper().to_mapping_lines(reads, report.mappings);
        stats = report.stats;
      }
    } catch (const std::exception& error) {
      // A failed plain streamed run leaves nothing behind; a checkpointed
      // one keeps its .partial and journal for --resume.
      if (output && !journal) output->discard();
      std::cerr << "error: " << error.what() << '\n';
      return kExitRuntime;
    }
    util::log_info() << "engine: " << stats.batches << " batches, "
                     << stats.segments << " segments, "
                     << static_cast<std::uint64_t>(stats.segments_per_s())
                     << " segments/s (read " << stats.read_s << " s, map "
                     << stats.map_s << " s, emit " << stats.emit_s
                     << " s, queue-wait " << stats.queue_wait_s << " s)";
  }
  stop_progress();

  if (!streamed) {
    tally(lines);
    try {
      std::ostringstream serialized;
      io::write_mappings(serialized, lines);
      io::atomic_write_file(output_path, std::move(serialized).str());
    } catch (const io::ArtifactError& error) {
      std::cerr << "error: cannot write " << output_path << ": "
                << error.what() << '\n';
      return kExitRuntime;
    }
  }
  util::log_info() << "mapped " << records << " end segments in "
                   << timer.elapsed_s() << " s";
  write_obs_outputs();
  std::cout << "wrote " << records << " records (" << mapped
            << " mapped) to " << output_path << '\n';
  return kExitOk;
}

}  // namespace jem::cli
