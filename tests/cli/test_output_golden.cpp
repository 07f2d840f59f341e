// Output identity: the XXH64 of every mapping output the tool writes from
// one committed input pair, pinned to golden digests. tests/data holds 8
// contigs (98.7 kbp) and 97 HiFi reads (968 kbp, one gzip member), made
// once by `make_dataset --preset "E. coli" --cap-bp 100000 --seed 1`. A
// kernel or pipeline change that keeps these digests writes the same bytes
// as before in every mode below; each output is also checked to be the same
// at 1 to 4 threads.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "cli/cli.hpp"
#include "core/engine.hpp"
#include "core/service.hpp"
#include "io/artifact.hpp"
#include "io/fasta.hpp"
#include "serve/client.hpp"
#include "serve/server.hpp"
#include "util/log.hpp"

namespace jem {
namespace {

const std::string kContigs = std::string(JEM_TEST_DATA_DIR) +
                             "/golden_contigs.fa";
const std::string kReads = std::string(JEM_TEST_DATA_DIR) +
                           "/golden_reads.fq.gz";
constexpr int kMaxThreads = 4;

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

/// A scratch path named after the running test, so that tests run as
/// parallel processes never share one.
std::string temp_path(const std::string& suffix) {
  return ::testing::TempDir() + "/output_golden_" +
         ::testing::UnitTest::GetInstance()->current_test_info()->name() +
         suffix;
}

/// Runs `jem map` on the golden inputs with `extra` options and returns the
/// xxh64 of the TSV it wrote (0 when it failed).
std::uint64_t map_digest(const std::vector<std::string>& extra) {
  const std::string output = temp_path(".tsv");
  std::vector<std::string> args = {"--subjects", kContigs, "--queries",
                                   kReads,       "--output", output};
  args.insert(args.end(), extra.begin(), extra.end());
  std::vector<const char*> argv;
  for (const std::string& arg : args) argv.push_back(arg.c_str());
  (void)util::Log::begin_capture();
  const int exit_code = cli::run_map({argv.data(), argv.size()}, "jem map");
  (void)util::Log::end_capture();
  const std::string bytes = read_file(output);
  std::remove(output.c_str());
  return exit_code == cli::kExitOk && !bytes.empty() ? io::xxh64(bytes) : 0;
}

std::string hex(std::uint64_t digest) {
  char text[19];
  std::snprintf(text, sizeof text, "0x%016llx",
                static_cast<unsigned long long>(digest));
  return text;
}

struct Golden {
  const char* name;
  std::vector<std::string> args;
  std::uint64_t digest;
};

TEST(OutputGolden, JemMapAtOneToFourThreads) {
  const Golden goldens[] = {
      {"in memory", {}, 0xe16e43eea68dc056},
      {"tiled", {"--tiled"}, 0x6643da9fbff642c4},
      {"batch 25", {"--batch", "25"}, 0xe16e43eea68dc056},
      {"minhash", {"--scheme", "minhash"}, 0xbb31614602c4603c},
      {"trials 150", {"--trials", "150"}, 0x32f0940962bcfad6},
  };
  for (const Golden& golden : goldens) {
    for (int threads = 1; threads <= kMaxThreads; ++threads) {
      std::vector<std::string> args = golden.args;
      args.insert(args.end(), {"--threads", std::to_string(threads)});
      EXPECT_EQ(hex(map_digest(args)), hex(golden.digest))
          << golden.name << " at " << threads << " threads";
    }
  }
}

TEST(OutputGolden, PartitionedRanksWriteTheGoldenBytes) {
  const Golden goldens[] = {
      {"ranks 3 partitioned", {"--ranks", "3", "--partitioned"},
       0xe16e43eea68dc056},
      {"ranks 3 partitioned, minhash at 65 trials",
       {"--ranks", "3", "--partitioned", "--scheme", "minhash", "--trials",
        "65"},
       0x2f8d4652b409f4e5},
  };
  for (const Golden& golden : goldens) {
    EXPECT_EQ(hex(map_digest(golden.args)), hex(golden.digest))
        << golden.name;
  }
}

TEST(OutputGolden, SavedIndexRoundTripWritesTheGoldenBytes) {
  const std::uint64_t in_memory = 0xe16e43eea68dc056;
  const std::string index = temp_path(".idx");
  EXPECT_EQ(hex(map_digest({"--save-index", index})), hex(in_memory));
  for (int threads = 1; threads <= kMaxThreads; ++threads) {
    EXPECT_EQ(hex(map_digest({"--load-index", index, "--threads",
                              std::to_string(threads)})),
              hex(in_memory))
        << threads << " threads";
  }
  std::remove(index.c_str());
}

TEST(OutputGolden, TopXAtOneToFourThreads) {
  io::SequenceSet subjects;
  io::SequenceSet reads;
  io::load_into(kContigs, subjects);
  io::load_into(kReads, reads);
  const core::MappingEngine engine(subjects, core::MapParams{});
  for (int threads = 1; threads <= kMaxThreads; ++threads) {
    core::MapRequest request;
    request.mode = core::MapMode::kTopX;
    request.backend = core::MapBackend::kPool;
    request.threads = static_cast<std::size_t>(threads);
    request.top_x = 3;
    std::string text;
    for (const core::SegmentTopX& segment : engine.run(reads, request).topx) {
      text += std::to_string(segment.read) + '\t' +
              core::read_end_tag(segment.end) + '\t' +
              std::to_string(segment.segment_length);
      for (const core::MapResult& hit : segment.hits) {
        text += '\t' + std::to_string(hit.subject) + ':' +
                std::to_string(hit.votes);
      }
      text += '\n';
    }
    EXPECT_EQ(hex(io::xxh64(text)), hex(0x793f652ab12c2b5f))
        << threads << " threads";
  }
}

/// An error body with its leading `"trace_id":"…","request_id":"…",` pair
/// removed: what is left is fixed by the request alone.
std::string without_ids(const std::string& body) {
  const std::string prefix = "{\"trace_id\":\"";
  const std::string request_id = "\"request_id\":\"";
  if (body.rfind(prefix, 0) != 0) return body;
  const std::size_t at = body.find(request_id);
  const std::size_t end =
      at == std::string::npos ? at : body.find("\",", at + request_id.size());
  return end == std::string::npos ? body : "{" + body.substr(end + 2);
}

/// /map bodies from a server over the golden contigs: the first 1000 bp of
/// 16 reads (one-block queries) and 4 whole reads (many blocks), each with
/// no query string, ?top_x=3 and ?min_votes=5, then five validation
/// errors, posted by as many clients as the server has workers.
TEST(OutputGolden, MapBodiesAtOneToFourWorkers) {
  io::SequenceSet subjects;
  io::SequenceSet reads;
  io::load_into(kContigs, subjects);
  io::load_into(kReads, reads);
  std::vector<std::string> targets;
  for (io::SeqId read = 0; read < 20; ++read) {
    const std::string bases(reads.bases(read));
    const std::string body = read < 16 ? bases.substr(0, 1000) : bases;
    for (const char* query : {"", "?top_x=3", "?min_votes=5"}) {
      targets.push_back(query);
      targets.push_back(body);
    }
  }
  const std::string bases(reads.bases(0).substr(0, 200));
  for (const auto& [query, body] : std::vector<std::pair<std::string,
                                                        std::string>>{
           {"", ""},
           {"?top_x=0", bases},
           {"?min_votes=0", bases},
           {"?top_x=three", bases},
           {"?deadline_ms=99999999999999999999", bases}}) {
    targets.push_back(query);
    targets.push_back(body);
  }
  const std::size_t requests = targets.size() / 2;
  const core::MappingService service(std::move(subjects),
                                     core::ServiceConfig::make().build());
  for (int workers = 1; workers <= kMaxThreads; ++workers) {
    serve::ServerConfig config;
    config.workers = static_cast<std::size_t>(workers);
    config.cache_capacity = 0;
    serve::MappingServer server(service, config);
    server.start();
    std::vector<std::string> bodies(requests);
    std::vector<std::thread> clients;
    for (int client = 0; client < workers; ++client) {
      clients.emplace_back([&, client] {
        for (std::size_t i = static_cast<std::size_t>(client); i < requests;
             i += static_cast<std::size_t>(workers)) {
          const serve::HttpResponse response =
              serve::http_post("127.0.0.1", server.port(),
                               "/map" + targets[2 * i], targets[2 * i + 1]);
          bodies[i] = std::to_string(response.status) + ' ' +
                      without_ids(response.body);
        }
      });
    }
    for (std::thread& client : clients) client.join();
    server.stop();
    std::string text;
    for (const std::string& body : bodies) text += body + '\n';
    EXPECT_EQ(hex(io::xxh64(text)), hex(0x0b18630f8341d290))
        << workers << " workers";
  }
}

}  // namespace
}  // namespace jem
