// Chaos tests of the crash-safe persistence path (docs/persistence.md):
// deterministic "ckpt.write" faults kill a checkpointed streaming run at
// chosen journal appends (the sink journals each batch, as `jem map`'s
// does), and the resume protocol — read_journal, reopen the
// partial output at the journaled prefix, BatchStream::skip, continue into
// the same output — must reproduce the uninterrupted run byte for byte.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "core/engine.hpp"
#include "io/batch_stream.hpp"
#include "io/checkpoint.hpp"
#include "io/fasta.hpp"
#include "io/mapping_writer.hpp"
#include "util/fault_plan.hpp"
#include "util/prng.hpp"

namespace jem::core {
namespace {

std::string random_dna(util::Xoshiro256ss& rng, std::size_t len) {
  static constexpr char kBases[] = "ACGT";
  std::string out(len, 'A');
  for (char& c : out) c = kBases[rng.bounded(4)];
  return out;
}

std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::string data((std::istreambuf_iterator<char>(in)),
                   std::istreambuf_iterator<char>());
  return data;
}

class ChaosCheckpointTest : public ::testing::Test {
 protected:
  void SetUp() override {
    util::Xoshiro256ss rng(4242);
    genome_ = random_dna(rng, 40'000);
    for (int i = 0; i < 8; ++i) {
      subjects_.add("contig_" + std::to_string(i),
                    genome_.substr(static_cast<std::size_t>(i) * 5000, 5000));
    }
    params_ = MapParams{
        .k = 16, .w = 20, .trials = 8, .segment_length = 800, .seed = 7};
    params_.validate();
    util::Xoshiro256ss read_rng(11);
    io::SequenceSet reads;
    for (int i = 0; i < 24; ++i) {
      const std::size_t pos = read_rng.bounded(34'000);
      const std::size_t length = 1200 + read_rng.bounded(3000);
      reads.add("read_" + std::to_string(i), genome_.substr(pos, length));
    }
    std::ostringstream fasta;
    io::write_fasta(fasta, reads);
    fasta_ = fasta.str();
    total_reads_ = reads.size();

    fp_.words = {0xaaaa, 0xbbbb, 0xcccc, 0xdddd};
  }

  /// Deterministic byte rendering of one emitted batch — the engine's
  /// in-order emit makes the concatenation independent of batch size,
  /// backend and thread count.
  static std::string render(const MappingEngine::BatchResult& result) {
    std::ostringstream out;
    for (const SegmentMapping& m : result.mappings) {
      out << (m.read + result.batch.first_record) << '\t'
          << read_end_tag(m.end) << '\t' << m.offset << '\t'
          << m.segment_length << '\t' << m.result.subject << '\t'
          << m.result.votes << '\n';
    }
    return std::move(out).str();
  }

  /// The uninterrupted run's bytes (serial, no checkpoint) — the golden
  /// output every interrupted-and-resumed run must reproduce.
  std::string golden(const MappingEngine& engine) const {
    std::istringstream in(fasta_);
    io::BatchStream stream(in, 5);
    std::string out;
    const MapRequest request;
    engine.run_stream(stream, request,
                      [&](const MappingEngine::BatchResult& result) {
                        out += render(result);
                      });
    return out;
  }

  /// The sink of a checkpointing driver: append the batch's bytes, fsync
  /// them, then journal the batch — a record never claims bytes the disk
  /// does not have.
  static MappingEngine::BatchSink journaling_sink(
      io::MappingOutput& output, io::CheckpointWriter& journal) {
    return [&output, &journal](const MappingEngine::BatchResult& result) {
      output.append(render(result));
      output.sync();
      journal.append_batch(
          result.batch.index,
          result.batch.first_record + result.batch.reads.size());
    };
  }

  /// Unique scratch paths per test (gtest runs tests in one process).
  std::string out_path(const std::string& label) const {
    return ::testing::TempDir() + "/jem_ckpt_" + label + ".tsv";
  }

  std::string genome_;
  std::string fasta_;
  io::SequenceSet subjects_;
  MapParams params_;
  std::size_t total_reads_ = 0;
  io::JournalFingerprint fp_;
};

TEST_F(ChaosCheckpointTest, CheckpointedRunMatchesPlainStreaming) {
  const MappingEngine engine(subjects_, params_);
  const std::string expected = golden(engine);

  for (const std::size_t batch : {std::size_t{3}, std::size_t{7}}) {
    const std::string label = "plain_b" + std::to_string(batch);
    const std::string out = out_path(label);
    const std::string ckpt = out + ".ckpt";
    std::remove(out.c_str());

    io::MappingOutput output(out);
    io::CheckpointWriter journal = io::CheckpointWriter::create(ckpt, fp_);
    journal.set_output_state([&] { return output.state(); });

    MapRequest request;
    request.backend = MapBackend::kPool;
    request.threads = 3;
    std::istringstream in(fasta_);
    io::BatchStream stream(in, batch);
    (void)engine.run_stream(stream, request,
                            journaling_sink(output, journal));

    const std::uint64_t batches = (total_reads_ + batch - 1) / batch;
    EXPECT_EQ(journal.records_appended(), batches);
    const io::ResumePoint point = io::read_journal(ckpt, fp_);
    EXPECT_EQ(point.batches_done, batches);
    EXPECT_EQ(point.records_done, total_reads_);
    EXPECT_EQ(point.output_bytes, expected.size());
    EXPECT_EQ(point.output_hash, io::xxh64(expected));

    output.publish();
    journal.close();
    io::remove_journal(ckpt);
    EXPECT_EQ(slurp(out), expected);
    std::remove(out.c_str());
  }
}

TEST_F(ChaosCheckpointTest, KillAndResumeIsByteIdenticalAtEveryKillPoint) {
  const MappingEngine engine(subjects_, params_);
  const std::string expected = golden(engine);

  // Acceptance matrix: >= 3 kill points x 2 batch sizes.
  for (const std::size_t batch : {std::size_t{3}, std::size_t{7}}) {
    for (const std::uint64_t kill : {std::uint64_t{0}, std::uint64_t{1},
                                     std::uint64_t{3}}) {
      const std::string label =
          "kill" + std::to_string(kill) + "_b" + std::to_string(batch);
      const std::string out = out_path(label);
      const std::string ckpt = out + ".ckpt";
      std::remove(out.c_str());

      {  // Phase 1: run until the injected crash mid-journal-append.
        io::MappingOutput output(out);
        io::CheckpointWriter journal =
            io::CheckpointWriter::create(ckpt, fp_);
        journal.set_output_state([&] { return output.state(); });
        util::FaultPlan plan;
        plan.abort_at(0, "ckpt.write", kill);
        util::FaultInjector injector(&plan, 0);
        journal.set_fault_injector(&injector);

        MapRequest request;
        request.backend = MapBackend::kPool;
        request.threads = 3;
        std::istringstream in(fasta_);
        io::BatchStream stream(in, batch);
        try {
          (void)engine.run_stream(stream, request,
                                  journaling_sink(output, journal));
          FAIL() << label << ": expected the injected crash";
        } catch (const util::FaultAbort& abort) {
          EXPECT_EQ(abort.site(), "ckpt.write") << label;
        }
        // output/journal fall out of scope unpublished — the SIGKILL shape:
        // a .partial file and a torn journal are all that survive.
      }

      // Phase 2: resume exactly as `jem map --resume` does.
      const io::ResumePoint point = io::read_journal(ckpt, fp_);
      EXPECT_EQ(point.batches_done, kill) << label;
      EXPECT_EQ(point.torn_records, 1u) << label;  // the torn half-record

      io::MappingOutput output(out, point.output_bytes, point.output_hash);
      io::CheckpointWriter journal =
          io::CheckpointWriter::reopen(ckpt, fp_, point);
      journal.set_output_state([&] { return output.state(); });

      std::istringstream in(fasta_);
      io::BatchStream stream(in, batch);
      EXPECT_EQ(stream.skip(point.batches_done), point.records_done);

      MapRequest request;
      request.backend = MapBackend::kPool;
      request.threads = 2;
      const EngineStats stats = engine.run_stream(
          stream, request, journaling_sink(output, journal));
      EXPECT_EQ(stats.batches_skipped, kill);

      output.publish();
      journal.close();
      io::remove_journal(ckpt);
      EXPECT_EQ(slurp(out), expected) << label;
      std::remove(out.c_str());
    }
  }
}

TEST_F(ChaosCheckpointTest, SerialBackendKillAndResumeIsByteIdentical) {
  const MappingEngine engine(subjects_, params_);
  const std::string expected = golden(engine);
  const std::string out = out_path("serial_kill");
  const std::string ckpt = out + ".ckpt";
  std::remove(out.c_str());

  {
    io::MappingOutput output(out);
    io::CheckpointWriter journal = io::CheckpointWriter::create(ckpt, fp_);
    journal.set_output_state([&] { return output.state(); });
    util::FaultPlan plan;
    plan.abort_at(0, "ckpt.write", 2);
    util::FaultInjector injector(&plan, 0);
    journal.set_fault_injector(&injector);
    const MapRequest request;  // kSerial backend
    std::istringstream in(fasta_);
    io::BatchStream stream(in, 5);
    EXPECT_THROW((void)engine.run_stream(stream, request,
                                         journaling_sink(output, journal)),
                 util::FaultAbort);
  }

  const io::ResumePoint point = io::read_journal(ckpt, fp_);
  EXPECT_EQ(point.batches_done, 2u);
  io::MappingOutput output(out, point.output_bytes, point.output_hash);
  io::CheckpointWriter journal = io::CheckpointWriter::reopen(ckpt, fp_, point);
  journal.set_output_state([&] { return output.state(); });
  std::istringstream in(fasta_);
  io::BatchStream stream(in, 5);
  stream.skip(point.batches_done);
  const MapRequest request;
  (void)engine.run_stream(stream, request, journaling_sink(output, journal));
  output.publish();
  journal.close();
  io::remove_journal(ckpt);
  EXPECT_EQ(slurp(out), expected);
  std::remove(out.c_str());
}

}  // namespace
}  // namespace jem::core
