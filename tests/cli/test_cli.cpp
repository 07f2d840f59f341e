#include "cli/cli.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "core/service.hpp"
#include "io/fasta.hpp"
#include "util/log.hpp"

namespace jem::cli {
namespace {

/// Runs a subcommand entry point with a shell-style argument list, capturing
/// log output so test runs stay quiet.
int run(int (*entry)(std::span<const char* const>, std::string_view),
        const std::vector<std::string>& args, std::string_view program) {
  std::vector<const char*> argv;
  argv.reserve(args.size());
  for (const std::string& arg : args) argv.push_back(arg.c_str());
  (void)util::Log::begin_capture();
  const int exit_code = entry({argv.data(), argv.size()}, program);
  (void)util::Log::end_capture();
  return exit_code;
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

TEST(CliDispatch, ListsCommandsAndRejectsUnknown) {
  EXPECT_FALSE(commands().empty());
  const std::string usage = main_usage();
  for (const Command& command : commands()) {
    EXPECT_NE(usage.find(command.name), std::string::npos);
  }
  const char* unknown[] = {"jem", "frobnicate"};
  EXPECT_EQ(dispatch(2, unknown), kExitUsage);
  const char* nothing[] = {"jem"};
  EXPECT_EQ(dispatch(1, nothing), kExitUsage);
  const char* help[] = {"jem", "--help"};
  EXPECT_EQ(dispatch(2, help), kExitOk);
}

TEST(CliExitCodes, UsageErrorsAreUniformlyTwo) {
  // Unknown option.
  EXPECT_EQ(run(run_map, {"--no-such-flag"}, "jem map"), kExitUsage);
  // Missing required inputs.
  EXPECT_EQ(run(run_map, {}, "jem map"), kExitUsage);
  EXPECT_EQ(run(run_build_index, {"--demo"}, "jem build-index"), kExitUsage);
  // Unknown enum values — the unified --ordering/--scheme contract: every
  // subcommand reports the structured diagnostic and exits 2, not 1.
  EXPECT_EQ(run(run_map, {"--demo", "--ordering", "zigzag"}, "jem map"),
            kExitUsage);
  EXPECT_EQ(run(run_map, {"--demo", "--scheme", "sha256"}, "jem map"),
            kExitUsage);
  EXPECT_EQ(run(run_build_index,
                {"--demo", "--output", "/tmp/x.idx", "--ordering", "zigzag"},
                "jem build-index"),
            kExitUsage);
  EXPECT_EQ(run(run_serve, {"--demo", "--scheme", "sha256"}, "jem serve"),
            kExitUsage);
  // Out-of-range numeric parameters go through the same validated builder.
  EXPECT_EQ(run(run_map, {"--demo", "--k", "99"}, "jem map"), kExitUsage);
  EXPECT_EQ(run(run_serve, {"--demo", "--port", "70000"}, "jem serve"),
            kExitUsage);
  EXPECT_EQ(run(run_probe, {"--port", "0"}, "jem probe"), kExitUsage);
  // --ranks outside [1, 256] is refused before any rank thread starts,
  // including values an int cast would wrap or make negative.
  for (const char* ranks : {"0", "257", "2147483648", "4294967297"}) {
    EXPECT_EQ(run(run_map, {"--demo", "--ranks", ranks}, "jem map"),
              kExitUsage)
        << "--ranks " << ranks;
  }
  // Flags that only the single-process path honours are refused beside
  // --ranks, and --partitioned is refused without it.
  const std::vector<std::vector<std::string>> ignored_by_ranks = {
      {"--tiled"},
      {"--threads", "2"},
      {"--batch", "10"},
      {"--checkpoint", "c.ckpt"},
      {"--resume"},
      {"--save-index", "x.idx"},
      {"--load-index", "x.idx"}};
  for (const std::vector<std::string>& flag : ignored_by_ranks) {
    std::vector<std::string> args = {"--demo", "--ranks", "2"};
    args.insert(args.end(), flag.begin(), flag.end());
    EXPECT_EQ(run(run_map, args, "jem map"), kExitUsage) << flag[0];
  }
  EXPECT_EQ(run(run_map, {"--demo", "--partitioned"}, "jem map"), kExitUsage);
  // Streaming-only flags that a run would otherwise drop are refused, naming
  // the flag, before any input is read (the input files do not exist).
  const std::vector<std::pair<std::vector<std::string>, std::string>>
      dropped = {{{"--checkpoint", "c.ckpt"}, "--checkpoint needs --batch"},
                 {{"--batch", "10", "--resume"}, "--resume needs --checkpoint"},
                 {{"--demo", "--batch", "10"}, "--batch does not apply"}};
  for (const auto& [flags, message] : dropped) {
    std::vector<std::string> args = {"--subjects", "missing.fa", "--queries",
                                     "missing.fq"};
    args.insert(args.end(), flags.begin(), flags.end());
    ::testing::internal::CaptureStderr();
    const int exit_code = run(run_map, args, "jem map");
    const std::string err = ::testing::internal::GetCapturedStderr();
    EXPECT_EQ(exit_code, kExitUsage) << message;
    EXPECT_NE(err.find(message), std::string::npos) << err;
  }
}

TEST(CliHelp, EveryCommandPrintsItsUsageToStdoutAndExitsZero) {
  for (const Command& command : commands()) {
    const std::string program = "jem " + std::string(command.name);
    for (const char* flag : {"--help", "-h"}) {
      SCOPED_TRACE(program + " " + flag);
      ::testing::internal::CaptureStdout();
      const int exit_code = run(command.run, {flag}, program);
      const std::string out = ::testing::internal::GetCapturedStdout();
      EXPECT_EQ(exit_code, kExitOk);
      EXPECT_EQ(out.rfind("usage: " + program + " [options]\n", 0), 0u);
    }
    // Unknown options stay usage errors.
    EXPECT_EQ(run(command.run, {"--no-such-flag"}, program), kExitUsage)
        << program;
  }
}

TEST(CliMap, DemoRunWritesMappingsAndShimMatchesSubcommand) {
  const std::string dir = ::testing::TempDir();
  const std::string via_shim = dir + "/cli_shim.tsv";
  const std::string via_subcommand = dir + "/cli_subcommand.tsv";

  // The legacy jem_map binary and `jem map` are the same run_map body; a
  // demo run through each program name must produce identical mappings.
  ASSERT_EQ(run(run_map, {"--demo", "--output", via_shim}, "jem_map"),
            kExitOk);
  ASSERT_EQ(run(run_map, {"--demo", "--output", via_subcommand}, "jem map"),
            kExitOk);
  const std::string shim_bytes = read_file(via_shim);
  ASSERT_FALSE(shim_bytes.empty());
  EXPECT_EQ(shim_bytes, read_file(via_subcommand));
}

TEST(CliMap, DistributedRunsWriteTheSingleProcessBytes) {
  const std::string dir = ::testing::TempDir();
  const std::string single = dir + "/cli_single.tsv";
  const std::string replicated = dir + "/cli_ranks3.tsv";
  const std::string partitioned = dir + "/cli_ranks3_partitioned.tsv";
  ASSERT_EQ(run(run_map, {"--demo", "--output", single}, "jem map"), kExitOk);
  ASSERT_EQ(run(run_map, {"--demo", "--ranks", "3", "--output", replicated},
                "jem map"),
            kExitOk);
  ASSERT_EQ(run(run_map,
                {"--demo", "--ranks", "3", "--partitioned", "--output",
                 partitioned},
                "jem map"),
            kExitOk);
  const std::string expected = read_file(single);
  ASSERT_FALSE(expected.empty());
  EXPECT_EQ(read_file(replicated), expected);
  EXPECT_EQ(read_file(partitioned), expected);
}

TEST(CliMap, StreamedRunsWriteTheInMemoryBytes) {
  namespace fs = std::filesystem;
  const std::string dir = ::testing::TempDir();
  const std::string contigs = dir + "/cli_stream_contigs.fa";
  const std::string queries = dir + "/cli_stream_reads.fa";
  io::SequenceSet subjects;
  io::SequenceSet reads;
  make_demo_dataset(20230517, subjects, reads);
  std::string reads_fasta;
  {
    std::ofstream out(contigs);
    io::write_fasta(out, subjects);
    std::ostringstream text;
    io::write_fasta(text, reads);
    reads_fasta = text.str();
    std::ofstream(queries) << reads_fasta;
  }
  const std::vector<std::string> inputs = {"--subjects", contigs,
                                           "--queries", queries};
  const auto map_to = [&](const std::string& out,
                          std::vector<std::string> extra) {
    std::vector<std::string> args = inputs;
    args.insert(args.end(), {"--output", out});
    args.insert(args.end(), extra.begin(), extra.end());
    return run(run_map, args, "jem map");
  };

  const std::string in_memory = dir + "/cli_stream_memory.tsv";
  const std::string streamed = dir + "/cli_stream_batched.tsv";
  const std::string checkpointed = dir + "/cli_stream_ckpt.tsv";
  const std::string journal = dir + "/cli_stream.ckpt";
  ASSERT_EQ(map_to(in_memory, {}), kExitOk);
  ASSERT_EQ(map_to(streamed, {"--batch", "7", "--threads", "3"}), kExitOk);
  ASSERT_EQ(map_to(checkpointed, {"--batch", "7", "--threads", "3",
                                  "--checkpoint", journal}),
            kExitOk);
  const std::string expected = read_file(in_memory);
  ASSERT_FALSE(expected.empty());
  EXPECT_EQ(read_file(streamed), expected);
  EXPECT_EQ(read_file(checkpointed), expected);
  EXPECT_FALSE(fs::exists(streamed + ".partial"));
  EXPECT_FALSE(fs::exists(checkpointed + ".partial"));
  EXPECT_FALSE(fs::exists(journal));

  // A query file truncated mid-record (a last header with no sequence,
  // past several written batches) fails the run and leaves nothing behind.
  const std::size_t cut = reads_fasta.find('>', reads_fasta.size() / 2);
  ASSERT_NE(cut, std::string::npos);
  std::ofstream(queries, std::ios::trunc)
      << reads_fasta.substr(0, reads_fasta.find('\n', cut) + 1);
  const std::string failed = dir + "/cli_stream_truncated.tsv";
  std::remove(failed.c_str());
  EXPECT_EQ(map_to(failed, {"--batch", "7", "--threads", "3"}),
            kExitRuntime);
  EXPECT_FALSE(fs::exists(failed));
  EXPECT_FALSE(fs::exists(failed + ".partial"));
}

TEST(CliBuildIndex, ArtifactLoadsIntoTheService) {
  const std::string dir = ::testing::TempDir();
  const std::string index_path = dir + "/cli_demo.jemidx";
  ASSERT_EQ(run(run_build_index, {"--demo", "--output", index_path},
                "jem build-index"),
            kExitOk);

  // The artifact round-trips: from_index accepts it without rebuilding.
  io::SequenceSet subjects;
  io::SequenceSet reads;
  make_demo_dataset(20230517, subjects, reads);
  const core::ServiceConfig config = core::ServiceConfig::make().build();
  const core::MappingService service = core::MappingService::from_index(
      index_path, std::move(subjects), config);
  EXPECT_TRUE(service.load_report().loaded_from_artifact);
  EXPECT_TRUE(service.load_report().rejection.empty());
}

TEST(CliDemoDataset, IsDeterministicPerSeed) {
  io::SequenceSet subjects_a;
  io::SequenceSet reads_a;
  make_demo_dataset(99, subjects_a, reads_a);
  io::SequenceSet subjects_b;
  io::SequenceSet reads_b;
  make_demo_dataset(99, subjects_b, reads_b);
  ASSERT_EQ(subjects_a.size(), subjects_b.size());
  ASSERT_EQ(reads_a.size(), reads_b.size());
  ASSERT_GT(subjects_a.size(), 0u);
  for (io::SeqId id = 0; id < subjects_a.size(); ++id) {
    EXPECT_EQ(subjects_a.bases(id), subjects_b.bases(id));
  }
}

}  // namespace
}  // namespace jem::cli
