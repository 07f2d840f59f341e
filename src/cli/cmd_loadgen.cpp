// `jem loadgen` — Zipf-skewed load generator for a running `jem serve`
// (ROADMAP item 4c): offered-load vs latency/shed curves, the serving
// benchmark the paper's "heavy traffic from millions of users" motivation
// asks for.
//
//   jem loadgen --port 8765 [--host 127.0.0.1]
//               [--queries reads.fq | --demo] [--requests 200] [--clients 4]
//               [--mode closed|open] [--rate 500 | --sweep 100,200,400]
//               [--zipf-s 1.0] [--zipf-n 0] [--seed N] [--top-x 1]
//               [--out curve.json]
//
// Query popularity is Zipf(n, s) over the query set (rank 1 = hottest),
// the standard key-skew model for cache-fronted serving systems — a skewed
// stream exercises the LRU exactly the way production traffic would.
//
// Two driving modes:
//   closed  each client fires its next request the moment the previous one
//           completes — offered load self-clocks to server capacity.
//   open    requests are released on a fixed global schedule (i-th at
//           start + i/rate) regardless of completions — the mode that
//           exposes queueing collapse and shed behavior past saturation.
//
// The transport is the raw one-shot client on purpose: a 503 shed or a
// reset must count as exactly that, not be papered over by retries.
// Output is one JSON document ({"benchmark":"serve_load","points":[...]}),
// each point carrying offered/achieved rps, p50/p99/p999 ms and shed/error
// counts.
#include <algorithm>
#include <atomic>
#include <charconv>
#include <cmath>
#include <fstream>
#include <iostream>
#include <mutex>
#include <thread>
#include <vector>

#include "cli/cli.hpp"
#include "io/sequence_set.hpp"
#include "io/stream_reader.hpp"
#include "serve/client.hpp"
#include "util/options.hpp"
#include "util/prng.hpp"
#include "util/zipf.hpp"

namespace jem::cli {

namespace {

struct LoadPoint {
  double offered_rps = 0.0;  // 0 = closed loop (self-clocked)
  double achieved_rps = 0.0;
  double p50_ms = 0.0;
  double p99_ms = 0.0;
  double p999_ms = 0.0;
  double shed_rate = 0.0;
  std::uint64_t ok = 0;
  std::uint64_t shed = 0;
  std::uint64_t errors = 0;
};

double percentile_ms(const std::vector<std::uint64_t>& sorted_ns, double p) {
  if (sorted_ns.empty()) return 0.0;
  const std::size_t index = std::min(
      sorted_ns.size() - 1,
      static_cast<std::size_t>(p * static_cast<double>(sorted_ns.size())));
  return static_cast<double>(sorted_ns[index]) / 1e6;
}

std::string format_double(double value) {
  char buffer[64];
  std::snprintf(buffer, sizeof(buffer), "%.3f", value);
  return buffer;
}

/// One measured point: fires `schedule.size()` requests at `rate_rps`
/// (0 = closed loop) and tallies latency/shed/error.
LoadPoint run_point(const std::string& host, std::uint16_t port,
                    const std::string& target,
                    const std::vector<std::string>& sequences,
                    const std::vector<std::uint32_t>& schedule,
                    std::uint64_t clients, double rate_rps) {
  using Clock = std::chrono::steady_clock;
  LoadPoint point;
  point.offered_rps = rate_rps;

  std::atomic<std::uint64_t> next{0};
  std::atomic<std::uint64_t> ok{0};
  std::atomic<std::uint64_t> shed{0};
  std::atomic<std::uint64_t> errors{0};
  std::mutex latency_mutex;
  std::vector<std::uint64_t> latencies_ns;
  latencies_ns.reserve(schedule.size());

  const Clock::time_point start = Clock::now();
  std::vector<std::thread> pool;
  pool.reserve(clients);
  for (std::uint64_t t = 0; t < clients; ++t) {
    pool.emplace_back([&] {
      std::vector<std::uint64_t> local_ns;
      while (true) {
        const std::uint64_t i = next.fetch_add(1);
        if (i >= schedule.size()) break;
        if (rate_rps > 0) {
          // Open loop: the i-th request is released at start + i/rate,
          // whether or not earlier ones have completed.
          const auto due = start + std::chrono::nanoseconds(static_cast<
              std::int64_t>(1e9 * static_cast<double>(i) / rate_rps));
          std::this_thread::sleep_until(due);
        }
        const std::string& sequence = sequences[schedule[i]];
        const Clock::time_point sent = Clock::now();
        try {
          const serve::HttpResponse response =
              serve::http_post(host, port, target, sequence);
          const auto elapsed = std::chrono::duration_cast<
              std::chrono::nanoseconds>(Clock::now() - sent);
          if (response.status == 200) {
            ok.fetch_add(1);
            local_ns.push_back(static_cast<std::uint64_t>(elapsed.count()));
          } else if (response.status == 503) {
            shed.fetch_add(1);
          } else {
            errors.fetch_add(1);
          }
        } catch (const serve::ClientError&) {
          errors.fetch_add(1);
        }
      }
      std::lock_guard lock(latency_mutex);
      latencies_ns.insert(latencies_ns.end(), local_ns.begin(),
                          local_ns.end());
    });
  }
  for (std::thread& thread : pool) thread.join();
  const double wall_s =
      std::chrono::duration<double>(Clock::now() - start).count();

  std::sort(latencies_ns.begin(), latencies_ns.end());
  point.ok = ok.load();
  point.shed = shed.load();
  point.errors = errors.load();
  point.achieved_rps = wall_s > 0 ? static_cast<double>(point.ok) / wall_s : 0;
  point.p50_ms = percentile_ms(latencies_ns, 0.50);
  point.p99_ms = percentile_ms(latencies_ns, 0.99);
  point.p999_ms = percentile_ms(latencies_ns, 0.999);
  const std::uint64_t total = point.ok + point.shed + point.errors;
  point.shed_rate =
      total > 0 ? static_cast<double>(point.shed) / static_cast<double>(total)
                : 0.0;
  return point;
}

bool parse_sweep(const std::string& text, std::vector<double>& rates) {
  std::string_view rest = text;
  while (!rest.empty()) {
    const std::size_t comma = rest.find(',');
    const std::string_view item = rest.substr(0, comma);
    double value = 0;
    const auto [ptr, ec] =
        std::from_chars(item.data(), item.data() + item.size(), value);
    if (ec != std::errc{} || ptr != item.data() + item.size() || value <= 0) {
      return false;
    }
    rates.push_back(value);
    if (comma == std::string_view::npos) break;
    rest.remove_prefix(comma + 1);
  }
  return !rates.empty();
}

}  // namespace

int run_loadgen(std::span<const char* const> args, std::string_view program) {
  std::string host = "127.0.0.1";
  std::string queries_path;
  std::string mode = "closed";
  std::string sweep;
  std::string out_path;
  std::uint64_t port = 8765;
  std::uint64_t requests = 200;
  std::uint64_t clients = 4;
  std::uint64_t top_x = 1;
  std::uint64_t seed = 20230517;
  std::uint64_t zipf_n = 0;
  double zipf_s = 1.0;
  double rate = 0.0;
  bool demo = false;

  util::Options options;
  options.add_string("host", host, "server host (default 127.0.0.1)");
  options.add_uint("port", port, "server port");
  options.add_string("queries", queries_path,
                     "FASTA/FASTQ whose reads form the query population");
  options.add_flag("demo", demo, "use the simulated demo reads");
  options.add_uint("requests", requests,
                   "requests per measured point (default 200)");
  options.add_uint("clients", clients, "client threads (default 4)");
  options.add_string("mode", mode, "closed | open (default closed)");
  options.add_double("rate", rate,
                     "open-loop offered load in req/s (one point)");
  options.add_string("sweep", sweep,
                     "comma-separated open-loop rates, one point each "
                     "(overrides --rate)");
  options.add_double("zipf-s", zipf_s,
                     "Zipf skew exponent s (default 1.0; larger = hotter)");
  options.add_uint("zipf-n", zipf_n,
                   "Zipf population cap, 0 = all queries (default 0)");
  options.add_uint("seed", seed, "RNG seed for the rank schedule");
  options.add_uint("top-x", top_x, "top_x to request (default 1)");
  options.add_string("out", out_path, "write the JSON curve here (- = stdout)");
  if (const auto exit_code = options.parse_command(args, program)) {
    return *exit_code;
  }
  if (port == 0 || port > 65535) {
    std::cerr << "error: --port must be in [1, 65535]\n";
    return kExitUsage;
  }
  if (mode != "closed" && mode != "open") {
    std::cerr << "error: --mode must be closed | open\n";
    return kExitUsage;
  }
  if (zipf_s <= 0) {
    std::cerr << "error: --zipf-s must be > 0\n";
    return kExitUsage;
  }
  std::vector<double> rates;
  if (!sweep.empty()) {
    if (!parse_sweep(sweep, rates)) {
      std::cerr << "error: --sweep expects positive comma-separated rates\n";
      return kExitUsage;
    }
  } else if (rate > 0) {
    rates.push_back(rate);
  }
  if (mode == "open" && rates.empty()) {
    std::cerr << "error: open mode needs --rate or --sweep\n";
    return kExitUsage;
  }

  std::vector<std::string> sequences;
  try {
    io::SequenceSet reads;
    if (demo) {
      io::SequenceSet unused_subjects;
      make_demo_dataset(seed, unused_subjects, reads);
    } else if (!queries_path.empty()) {
      io::load_into(queries_path, reads);
    } else {
      std::cerr << "error: --queries or --demo is required\n";
      return kExitUsage;
    }
    sequences.reserve(reads.size());
    for (io::SeqId id = 0; id < reads.size(); ++id) {
      sequences.emplace_back(reads.bases(id));
    }
  } catch (const std::exception& error) {
    std::cerr << "input error: " << error.what() << '\n';
    return kExitRuntime;
  }
  if (sequences.empty()) {
    std::cerr << "error: query set is empty\n";
    return kExitRuntime;
  }

  // Zipf rank schedule: rank 1 = sequences[0] (hottest). Pre-generated
  // sequentially from one seeded generator so a rerun offers the exact
  // same request stream regardless of thread interleaving.
  const std::uint64_t population =
      zipf_n > 0 ? std::min<std::uint64_t>(zipf_n, sequences.size())
                 : sequences.size();
  util::Xoshiro256ss rng(seed);
  util::zipf_distribution<std::uint64_t> zipf(population, zipf_s);
  std::vector<std::uint32_t> schedule(requests);
  for (std::uint64_t i = 0; i < requests; ++i) {
    schedule[i] = static_cast<std::uint32_t>(zipf(rng) - 1);
  }

  const std::uint16_t port16 = static_cast<std::uint16_t>(port);
  const std::uint64_t nthreads = std::max<std::uint64_t>(1, clients);
  const std::string target = "/map?top_x=" + std::to_string(top_x);

  std::vector<LoadPoint> points;
  if (mode == "closed") {
    points.push_back(run_point(host, port16, target, sequences, schedule,
                               nthreads, 0.0));
  }
  for (const double point_rate : rates) {
    points.push_back(run_point(host, port16, target, sequences, schedule,
                               nthreads, point_rate));
  }

  std::string json = "{\"benchmark\":\"serve_load\",\"mode\":\"" + mode +
                     "\",\"zipf_s\":" + format_double(zipf_s) +
                     ",\"queries\":" + std::to_string(population) +
                     ",\"requests\":" + std::to_string(requests) +
                     ",\"clients\":" + std::to_string(nthreads) +
                     ",\"seed\":" + std::to_string(seed) + ",\"points\":[";
  for (std::size_t i = 0; i < points.size(); ++i) {
    const LoadPoint& p = points[i];
    if (i > 0) json += ',';
    json += "{\"offered_rps\":" + format_double(p.offered_rps) +
            ",\"achieved_rps\":" + format_double(p.achieved_rps) +
            ",\"p50_ms\":" + format_double(p.p50_ms) +
            ",\"p99_ms\":" + format_double(p.p99_ms) +
            ",\"p999_ms\":" + format_double(p.p999_ms) +
            ",\"shed_rate\":" + format_double(p.shed_rate) +
            ",\"ok\":" + std::to_string(p.ok) +
            ",\"shed\":" + std::to_string(p.shed) +
            ",\"errors\":" + std::to_string(p.errors) + "}";
  }
  json += "]}\n";

  if (out_path.empty() || out_path == "-") {
    std::cout << json;
  } else {
    std::ofstream file(out_path);
    file << json;
    if (!file) {
      std::cerr << "error: cannot write " << out_path << '\n';
      return kExitRuntime;
    }
  }

  // A load test is a measurement, not an assertion: sheds are data. Only
  // finding zero completed requests (server absent/dead) is a failure.
  std::uint64_t total_ok = 0;
  for (const LoadPoint& p : points) total_ok += p.ok;
  if (total_ok == 0) {
    std::cerr << "error: no request completed — is the server up?\n";
    return kExitRuntime;
  }
  return kExitOk;
}

}  // namespace jem::cli
