// `jem probe` — client-side smoke/ops check for a running `jem serve`:
// fires concurrent /map requests (sequences read from a FASTA/FASTQ file or
// the demo reads), then fetches /healthz and /metrics, optionally writing
// both bodies to files for schema validation (examples/obs_check).
//
//   jem probe --port 8765 [--host 127.0.0.1]
//             [--queries reads.fq | --demo] [--requests 16] [--clients 4]
//             [--top-x 1] [--deadline-ms 0] [--retries 3]
//             [--admin-reload idx.jemidx]
//             [--healthz-out h.json] [--metrics-out m.json]
//             [--openmetrics-out m.prom] [--requests-out flight.json]
//             [--watch N]
//
// --watch N polls /healthz every second for N ticks after the load phase
// and prints one line per tick with the windowed SLO section — a live view
// of the 10s/1m/5m percentiles decaying after the load.
//
// The transport is the retrying serve::Client (exponential backoff + full
// jitter, Retry-After), so a server that sheds 503s or is running a chaos
// fault plan still probes clean — --retries 0 restores one-shot semantics.
// --admin-reload posts a hot-swap to /admin/reload once half the /map
// requests are in flight, making the probe double as the zero-downtime
// reload check. It is the only in-tree program besides perfbench's serve
// probe that drives /map.
//
// Exit 0 when every request succeeded (HTTP 200 and, for /map, a JSON
// body); 1 otherwise — which makes it the assertion step of the check.sh
// serve smokes.
#include <atomic>
#include <fstream>
#include <iostream>
#include <thread>
#include <vector>

#include "cli/cli.hpp"
#include "io/sequence_set.hpp"
#include "io/stream_reader.hpp"
#include "serve/client.hpp"
#include "util/log.hpp"
#include "util/options.hpp"

namespace jem::cli {

int run_probe(std::span<const char* const> args, std::string_view program) {
  std::string host = "127.0.0.1";
  std::string queries_path;
  std::string healthz_out;
  std::string metrics_out;
  std::string openmetrics_out;
  std::string requests_out;
  std::string admin_reload;
  std::uint64_t watch = 0;
  std::uint64_t port = 8765;
  std::uint64_t requests = 16;
  std::uint64_t clients = 4;
  std::uint64_t top_x = 1;
  std::uint64_t deadline_ms = 0;
  std::uint64_t seed = 20230517;
  std::uint64_t retries = 3;
  bool demo = false;

  util::Options options;
  options.add_string("host", host, "server host (default 127.0.0.1)");
  options.add_uint("port", port, "server port");
  options.add_string("queries", queries_path,
                     "FASTA/FASTQ whose reads become /map bodies");
  options.add_flag("demo", demo, "probe with simulated demo reads");
  options.add_uint("requests", requests,
                   "total /map requests to send (default 16)");
  options.add_uint("clients", clients,
                   "concurrent client threads (default 4)");
  options.add_uint("top-x", top_x, "top_x to request (default 1)");
  options.add_uint("deadline-ms", deadline_ms,
                   "per-request deadline_ms, 0 = none");
  options.add_uint("seed", seed, "demo dataset seed");
  options.add_uint("retries", retries,
                   "retry attempts per request beyond the first (default 3)");
  options.add_string("admin-reload", admin_reload,
                     "POST /admin/reload?path=<this> once half the /map "
                     "requests are done (hot-swap smoke)");
  options.add_string("healthz-out", healthz_out,
                     "write the /healthz body to this file");
  options.add_string("metrics-out", metrics_out,
                     "write the /metrics body to this file");
  options.add_string("openmetrics-out", openmetrics_out,
                     "write the /metrics OpenMetrics text exposition "
                     "(?format=openmetrics) to this file");
  options.add_string("requests-out", requests_out,
                     "write the /debug/requests body to this file");
  options.add_uint("watch", watch,
                   "after the load, poll /healthz once a second for N ticks "
                   "and print the windowed SLO line (0 = off)");
  if (const auto exit_code = options.parse_command(args, program)) {
    return *exit_code;
  }
  if (port == 0 || port > 65535) {
    std::cerr << "error: --port must be in [1, 65535]\n";
    return kExitUsage;
  }

  // Collect probe sequences. /map maps each body as one query segment, so
  // reads are used as-is.
  std::vector<std::string> sequences;
  try {
    io::SequenceSet reads;
    if (demo) {
      io::SequenceSet unused_subjects;
      make_demo_dataset(seed, unused_subjects, reads);
    } else if (!queries_path.empty()) {
      io::load_into(queries_path, reads);
    }
    for (io::SeqId id = 0; id < reads.size() && sequences.size() < requests;
         ++id) {
      sequences.emplace_back(reads.bases(id));
    }
  } catch (const std::exception& error) {
    std::cerr << "input error: " << error.what() << '\n';
    return kExitRuntime;
  }

  const std::uint16_t port16 = static_cast<std::uint16_t>(port);

  // One retrying client shared by the whole pool (thread-safe): backoff +
  // jitter, honors Retry-After on sheds.
  serve::RetryPolicy policy;
  policy.max_attempts = static_cast<int>(retries) + 1;
  policy.jitter_seed = seed;
  serve::Client client(host, port16, policy);

  std::atomic<std::uint64_t> next{0};
  std::atomic<std::uint64_t> ok{0};
  std::atomic<std::uint64_t> failed{0};
  std::atomic<bool> reload_ok{true};

  if (!sequences.empty()) {
    std::string target = "/map?top_x=" + std::to_string(top_x);
    if (deadline_ms > 0) {
      target += "&deadline_ms=" + std::to_string(deadline_ms);
    }
    const std::uint64_t total = requests;
    const std::uint64_t reload_after = std::max<std::uint64_t>(1, total / 2);
    std::atomic<bool> reload_fired{admin_reload.empty()};
    std::vector<std::thread> pool;
    const std::uint64_t nthreads = std::max<std::uint64_t>(1, clients);
    pool.reserve(nthreads);
    for (std::uint64_t t = 0; t < nthreads; ++t) {
      pool.emplace_back([&] {
        while (true) {
          const std::uint64_t i = next.fetch_add(1);
          if (i >= total) return;
          // Hot-swap mid-load: exactly one thread posts the reload once
          // half the requests have been claimed — traffic keeps flowing
          // through the swap, which is the zero-downtime assertion.
          if (i >= reload_after && !reload_fired.exchange(true)) {
            try {
              const serve::HttpResponse response = client.post(
                  "/admin/reload?path=" + admin_reload, "");
              if (response.status != 200) {
                reload_ok.store(false);
                util::log_warn() << "admin reload: HTTP " << response.status
                                 << " " << response.body;
              }
            } catch (const serve::ClientError& error) {
              reload_ok.store(false);
              util::log_warn() << "admin reload: " << error.what();
            }
          }
          const std::string& sequence = sequences[i % sequences.size()];
          try {
            const serve::HttpResponse response =
                client.post(target, sequence);
            if (response.status == 200 && !response.body.empty() &&
                response.body.front() == '{') {
              ok.fetch_add(1);
            } else {
              failed.fetch_add(1);
              util::log_info() << "map request " << i << ": HTTP "
                               << response.status << " " << response.body;
            }
          } catch (const serve::ClientError& error) {
            failed.fetch_add(1);
            util::log_info() << "map request " << i << ": " << error.what();
          }
        }
      });
    }
    for (std::thread& thread : pool) thread.join();
  }

  bool endpoints_ok = true;
  const auto fetch = [&](std::string_view endpoint, const std::string& out) {
    try {
      const serve::HttpResponse response = client.get(endpoint);
      if (response.status != 200) {
        std::cerr << "error: " << endpoint << " returned HTTP "
                  << response.status << '\n';
        endpoints_ok = false;
        return;
      }
      if (!out.empty()) {
        std::ofstream file(out);
        file << response.body;
        if (!file) {
          std::cerr << "error: cannot write " << out << '\n';
          endpoints_ok = false;
        }
      }
    } catch (const serve::ClientError& error) {
      std::cerr << "error: " << endpoint << ": " << error.what() << '\n';
      endpoints_ok = false;
    }
  };
  fetch("/healthz", healthz_out);
  fetch("/metrics", metrics_out);
  if (!openmetrics_out.empty()) {
    fetch("/metrics?format=openmetrics", openmetrics_out);
  }
  if (!requests_out.empty()) fetch("/debug/requests", requests_out);

  // Live SLO view: one /healthz poll per second, printing the windowed
  // section so a human can watch a spike decay out of the 10s window.
  for (std::uint64_t tick = 0; tick < watch; ++tick) {
    if (tick > 0) std::this_thread::sleep_for(std::chrono::seconds(1));
    try {
      const serve::HttpResponse response = client.get("/healthz");
      std::string slo = response.body;
      const std::size_t at = slo.find("\"slo\":");
      if (at != std::string::npos) slo = slo.substr(at + 6);
      if (!slo.empty() && slo.back() == '}') slo.pop_back();
      std::cout << "watch " << tick + 1 << "/" << watch << ": " << slo
                << std::endl;
    } catch (const serve::ClientError& error) {
      std::cout << "watch " << tick + 1 << "/" << watch << ": " << error.what()
                << std::endl;
      endpoints_ok = false;
      break;
    }
  }

  std::cout << "probe: " << ok.load() << " mapped, " << failed.load()
            << " failed, " << client.retries() << " retried, endpoints "
            << (endpoints_ok ? "ok" : "FAILED") << '\n';
  return (failed.load() == 0 && endpoints_ok && reload_ok.load()) ? kExitOk
                                                                  : kExitRuntime;
}

}  // namespace jem::cli
