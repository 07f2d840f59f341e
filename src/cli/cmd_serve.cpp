// `jem serve` — the always-on mapping service (docs/serve.md): load (or
// build) the subject index once, bind a loopback HTTP socket, and serve
// mapping requests until SIGTERM/SIGINT, then drain gracefully.
//
//   jem serve --subjects contigs.fa [--load-index idx] [--port 8765]
//             [--workers 4] [--queue 64] [--cache 1024]
//             [--deadline-ms 0] [--port-file run.port]
//             [--slow-ms 0] [--flight-recorder-size 256]
//             [--slo-frame-ms 1000] [--log-format human|json]
//             [--k 16] [--w 100] [--trials 30] [--segment 1000] [--seed N]
//             [--ordering lex|hash] [--scheme jem|minhash]
//   jem serve --demo --port 0 --port-file run.port   (simulated subjects)
//
// Each worker maps its own requests (docs/serve.md "Map on the worker").
// --port 0 binds an ephemeral port; --port-file publishes whichever port was
// bound (written atomically) so scripts can wait for it and connect.
//
// Hot swap: SIGHUP (or POST /admin/reload) reloads the --reload-index
// artifact and swaps the serving epoch with zero downtime; a corrupt or
// mismatched artifact is rejected and the old index keeps serving.
//
// SIGUSR1 dumps the flight recorder (recent per-request records, newest
// first) to stderr — the same data GET /debug/requests serves over HTTP.
//
// Chaos (docs/robustness.md): --chaos-seed plus --chaos-{delay,drop,abort}
// rates arm the serve.* fault sites with a seeded, reproducible plan;
// --chaos-abort-at site:invocation injects one deterministic worker abort
// (e.g. serve.write:4 kills the worker writing the 4th response).
#include <atomic>
#include <charconv>
#include <csignal>
#include <fstream>
#include <iostream>
#include <string_view>
#include <thread>

#include "cli/cli.hpp"
#include "core/service.hpp"
#include "io/artifact.hpp"
#include "io/sequence_set.hpp"
#include "serve/server.hpp"
#include "util/fault_plan.hpp"
#include "util/log.hpp"
#include "util/options.hpp"

namespace jem::cli {

namespace {

// Signal flags: the handlers only store; the main thread polls and acts.
std::atomic<bool> g_stop_requested{false};
std::atomic<bool> g_reload_requested{false};
std::atomic<bool> g_dump_requested{false};

void handle_stop_signal(int) { g_stop_requested.store(true); }
void handle_reload_signal(int) { g_reload_requested.store(true); }
void handle_dump_signal(int) { g_dump_requested.store(true); }

/// Parses a comma-separated list of "site:invocation" abort events
/// ("serve.write:4,serve.read:10") into `plan`. Returns false on garbage.
bool parse_abort_events(const std::string& text, util::FaultPlan& plan) {
  std::string_view rest = text;
  while (!rest.empty()) {
    const std::size_t comma = rest.find(',');
    const std::string_view item = rest.substr(0, comma);
    const std::size_t colon = item.rfind(':');
    if (colon == std::string_view::npos || colon == 0 ||
        colon + 1 >= item.size()) {
      return false;
    }
    std::uint64_t invocation = 0;
    const std::string_view digits = item.substr(colon + 1);
    const auto [ptr, ec] = std::from_chars(
        digits.data(), digits.data() + digits.size(), invocation);
    if (ec != std::errc{} || ptr != digits.data() + digits.size()) {
      return false;
    }
    plan.abort_at(util::FaultPlan::kAnyRank, std::string(item.substr(0, colon)),
                  invocation);
    if (comma == std::string_view::npos) break;
    rest.remove_prefix(comma + 1);
  }
  return true;
}

}  // namespace

int run_serve(std::span<const char* const> args, std::string_view program) {
  std::string subjects_path;
  std::string load_index_path;
  std::string port_file;
  SketchFlags sketch;
  std::uint64_t port = 8765;
  std::uint64_t workers = 4;
  std::uint64_t queue = 64;
  std::uint64_t cache = 1024;
  std::uint64_t deadline_ms = 0;
  bool demo = false;
  std::string reload_index_path;
  std::uint64_t chaos_seed = 0;
  double chaos_delay = 0.0;
  double chaos_drop = 0.0;
  double chaos_abort = 0.0;
  std::uint64_t chaos_max_delay_ms = 5;
  std::string chaos_abort_at;
  std::uint64_t slow_ms = 0;
  std::uint64_t flight_recorder_size = 256;
  std::uint64_t slo_frame_ms = 1000;
  std::string log_format = "human";

  util::Options options;
  options.add_string("subjects", subjects_path, "contigs FASTA path");
  options.add_string("load-index", load_index_path,
                     "frozen index artifact (rejected artifacts are "
                     "reported and rebuilt from FASTA)");
  options.add_string("port-file", port_file,
                     "write the bound port here once listening");
  sketch.add_to(options);
  options.add_uint("port", port, "listen port (0 = ephemeral, default 8765)");
  options.add_uint("workers", workers, "connection worker threads (default 4)");
  options.add_uint("queue", queue,
                   "admission queue capacity; overflow sheds 503 "
                   "(default 64)");
  options.add_uint("cache", cache,
                   "LRU response cache entries, 0 disables (default 1024)");
  options.add_uint("deadline-ms", deadline_ms,
                   "default per-request deadline in ms, 0 = none");
  options.add_flag("demo", demo, "simulate subjects instead of reading files");
  options.add_string("reload-index", reload_index_path,
                     "artifact hot-swapped on SIGHUP / POST /admin/reload "
                     "(default: the --load-index path)");
  options.add_uint("chaos-seed", chaos_seed,
                   "seed for the random serve.* fault plan (0 = off)");
  options.add_double("chaos-delay", chaos_delay,
                     "per-site injected-latency probability [0,1]");
  options.add_double("chaos-drop", chaos_drop,
                     "per-site reset/truncate/drop probability [0,1]");
  options.add_double("chaos-abort", chaos_abort,
                     "per-site thread-abort probability [0,1]");
  options.add_uint("chaos-max-delay-ms", chaos_max_delay_ms,
                   "injected delays are in [1, this] ms (default 5)");
  options.add_string("chaos-abort-at", chaos_abort_at,
                     "deterministic aborts, 'site:invocation[,...]' "
                     "(e.g. serve.write:4)");
  options.add_uint("slow-ms", slow_ms,
                   "warn-log a span breakdown for requests slower than this "
                   "(0 = off)");
  options.add_uint("flight-recorder-size", flight_recorder_size,
                   "per-request flight recorder capacity, 0 disables "
                   "(default 256); dump via GET /debug/requests or SIGUSR1");
  options.add_uint("slo-frame-ms", slo_frame_ms,
                   "windowed-SLO frame width in ms (default 1000)");
  options.add_string("log-format", log_format,
                     "log output format: human | json");
  if (const auto exit_code = options.parse_command(args, program)) {
    return *exit_code;
  }
  if (port > 65535) {
    std::cerr << "error: --port must be in [0, 65535]\n";
    return kExitUsage;
  }
  if (chaos_delay < 0 || chaos_drop < 0 || chaos_abort < 0 ||
      chaos_delay + chaos_drop + chaos_abort > 1.0) {
    std::cerr << "error: --chaos-* rates must be >= 0 and sum to <= 1\n";
    return kExitUsage;
  }
  if (log_format == "json") {
    util::Log::set_format(util::LogFormat::kJson);
  } else if (log_format != "human") {
    std::cerr << "error: --log-format must be 'human' or 'json', got '"
              << log_format << "'\n";
    return kExitUsage;
  }
  if (deadline_ms >
      static_cast<std::uint64_t>(serve::MappingServer::kMaxDeadline.count())) {
    std::cerr << "error: --deadline-ms must be at most "
              << serve::MappingServer::kMaxDeadline.count() << ", got "
              << deadline_ms << '\n';
    return kExitUsage;
  }
  if (slo_frame_ms == 0) {
    std::cerr << "error: --slo-frame-ms must be positive\n";
    return kExitUsage;
  }

  // The fault plan outlives the server (ServerConfig holds a pointer).
  util::FaultPlan fault_plan;
  bool chaos_enabled = false;
  if (chaos_seed != 0 &&
      (chaos_delay > 0 || chaos_drop > 0 || chaos_abort > 0)) {
    util::RandomFaultRates rates;
    rates.delay = chaos_delay;
    rates.drop = chaos_drop;
    rates.abort = chaos_abort;
    rates.max_delay = std::chrono::milliseconds(
        std::max<std::uint64_t>(1, chaos_max_delay_ms));
    fault_plan = util::FaultPlan::random(chaos_seed, rates);
    chaos_enabled = true;
  }
  if (!chaos_abort_at.empty()) {
    if (!parse_abort_events(chaos_abort_at, fault_plan)) {
      std::cerr << "error: --chaos-abort-at expects 'site:invocation[,...]', "
                   "got '"
                << chaos_abort_at << "'\n";
      return kExitUsage;
    }
    chaos_enabled = true;
  }

  const std::optional<core::ServiceConfig> config = sketch.build();
  if (!config) return kExitUsage;

  io::SequenceSet subjects;
  if (const int code = load_subjects(demo, subjects_path, sketch.seed,
                                     options, program, subjects);
      code != kExitOk) {
    return code;
  }

  try {
    // Load-once: the index is built (or loaded) here, before the socket
    // opens — every request after this point hits a warm, frozen table.
    core::MappingService service =
        load_index_path.empty()
            ? core::MappingService(std::move(subjects), *config)
            : core::MappingService::from_index(load_index_path,
                                               std::move(subjects), *config);
    if (!service.load_report().rejection.empty()) {
      util::log_info() << "index " << load_index_path << " rejected ("
                       << service.load_report().rejection
                       << "); rebuilt from subjects";
    } else if (service.load_report().loaded_from_artifact) {
      util::log_info() << "loaded sketch index from " << load_index_path;
    }

    serve::ServerConfig server_config;
    server_config.port = static_cast<std::uint16_t>(port);
    server_config.workers = workers;
    server_config.queue_capacity = queue;
    server_config.default_deadline = std::chrono::milliseconds(deadline_ms);
    server_config.cache_capacity = cache;
    server_config.slow_threshold = std::chrono::milliseconds(slow_ms);
    server_config.flight_recorder_size = flight_recorder_size;
    server_config.slo_frame = std::chrono::milliseconds(slo_frame_ms);
    if (chaos_enabled) server_config.fault_plan = &fault_plan;
    if (reload_index_path.empty()) reload_index_path = load_index_path;
    server_config.reload_index_path = reload_index_path;

    serve::MappingServer server(service, server_config);
    server.start();
    if (chaos_enabled) {
      util::log_info() << "chaos armed: seed " << chaos_seed << " delay "
                       << chaos_delay << " drop " << chaos_drop << " abort "
                       << chaos_abort
                       << (chaos_abort_at.empty()
                               ? std::string()
                               : " abort-at " + chaos_abort_at);
    }

    if (!port_file.empty()) {
      io::atomic_write_file(port_file,
                            std::to_string(server.port()) + "\n");
    }
    util::log_info() << "serving " << service.subjects().size()
                     << " subjects on 127.0.0.1:" << server.port() << " ("
                     << workers << " workers)";
    std::cout << "listening on 127.0.0.1:" << server.port() << std::endl;

    std::signal(SIGINT, handle_stop_signal);
    std::signal(SIGTERM, handle_stop_signal);
    std::signal(SIGHUP, handle_reload_signal);
    std::signal(SIGUSR1, handle_dump_signal);
    while (!g_stop_requested.load()) {
      if (g_dump_requested.exchange(false)) {
        // SIGUSR1: dump the flight recorder to stderr (ops escape hatch
        // when the HTTP plane is wedged or unreachable).
        const std::string dump = server.flight_recorder_text();
        std::cerr << "--- flight recorder ("
                  << (dump.empty() ? "empty or disabled" : "newest first")
                  << ") ---\n"
                  << dump << "--- end flight recorder ---\n";
      }
      if (g_reload_requested.exchange(false)) {
        if (reload_index_path.empty()) {
          util::log_warn() << "SIGHUP reload requested but no --reload-index "
                              "(or --load-index) path is configured";
        } else {
          const auto outcome = server.reload_index(reload_index_path);
          if (!outcome.success) {
            util::log_warn() << "SIGHUP reload failed: " << outcome.error;
          }
        }
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(50));
    }
    util::log_info() << "stop requested; draining";
    server.stop();  // graceful: admitted requests finish before exit
    util::log_info() << "drained; bye";
  } catch (const std::exception& error) {
    std::cerr << "error: " << error.what() << '\n';
    return kExitRuntime;
  }
  return kExitOk;
}

}  // namespace jem::cli
