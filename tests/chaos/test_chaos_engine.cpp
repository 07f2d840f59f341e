// Chaos tests for the streaming MappingEngine pipeline: injected reader /
// map / sink faults must surface as structured MapReport failures (or counted drops), never as hangs — and delay-only
// plans must leave the mapped output bit-identical.
#include "core/engine.hpp"

#include <gtest/gtest.h>

#include <chrono>
#include <cstddef>
#include <sstream>
#include <string>
#include <vector>

#include "core/dna.hpp"
#include "io/batch_stream.hpp"
#include "io/fasta.hpp"
#include "oracle/sequential_mapper.hpp"
#include "util/fault_plan.hpp"
#include "util/prng.hpp"

namespace jem::core {
namespace {

using std::chrono::milliseconds;

std::string random_dna(util::Xoshiro256ss& rng, std::size_t length) {
  std::string seq(length, 'A');
  for (char& c : seq) {
    c = code_base(static_cast<std::uint8_t>(rng.bounded(4)));
  }
  return seq;
}

class ChaosEngineTest : public ::testing::Test {
 protected:
  void SetUp() override {
    util::Xoshiro256ss rng(4242);
    genome_ = random_dna(rng, 40'000);
    for (int i = 0; i < 8; ++i) {
      subjects_.add("contig_" + std::to_string(i),
                    genome_.substr(static_cast<std::size_t>(i) * 5000, 5000));
    }
    params_ = MapParams::make()
                  .k(16)
                  .window(20)
                  .trials(8)
                  .segment_length(800)
                  .seed(7)
                  .build();
    util::Xoshiro256ss read_rng(11);
    for (int i = 0; i < 24; ++i) {
      const std::size_t pos = read_rng.bounded(34'000);
      const std::size_t length = 1200 + read_rng.bounded(3000);
      reads_.add("read_" + std::to_string(i), genome_.substr(pos, length));
    }
    std::ostringstream fasta;
    io::write_fasta(fasta, reads_);
    fasta_ = fasta.str();
  }

  /// Runs the guarded streaming pipeline and collects globalized mappings.
  MapReport run_guarded(const MappingEngine& engine, MapRequest request,
                        std::size_t batch_size,
                        std::vector<SegmentMapping>* out) const {
    std::istringstream in(fasta_);
    io::BatchStream stream(in, batch_size);
    return engine.run_stream_guarded(
        stream, request, [&](const MappingEngine::BatchResult& result) {
          if (out == nullptr) return;
          for (SegmentMapping mapping : result.mappings) {
            mapping.read =
                static_cast<io::SeqId>(mapping.read + result.batch.first_record);
            out->push_back(mapping);
          }
        });
  }

  std::string genome_;
  std::string fasta_;
  io::SequenceSet subjects_;
  io::SequenceSet reads_;
  MapParams params_;
};

TEST_F(ChaosEngineTest, GuardedRunWithoutFaultsMatchesSequential) {
  const MappingEngine engine(subjects_, params_);
  const auto expected = oracle::map_reads(engine.mapper(), reads_);

  MapRequest request;
  request.backend = MapBackend::kPool;
  request.threads = 3;
  std::vector<SegmentMapping> streamed;
  const MapReport report = run_guarded(engine, request, 5, &streamed);
  EXPECT_TRUE(report.ok());
  EXPECT_EQ(streamed, expected);
  EXPECT_EQ(report.stats.reads, reads_.size());
  EXPECT_EQ(report.stats.faults_injected, 0u);
  EXPECT_EQ(report.stats.batches_dropped, 0u);
}

TEST_F(ChaosEngineTest, DelayOnlyPlanKeepsStreamOutputBitIdentical) {
  const MappingEngine engine(subjects_, params_);
  const auto expected = oracle::map_reads(engine.mapper(), reads_);

  MapRequest request;
  request.backend = MapBackend::kPool;
  request.threads = 4;
  request.fault_plan.delay_at(util::FaultPlan::kAnyRank, "",
                              util::FaultPlan::kAnyInvocation, milliseconds(1));
  std::vector<SegmentMapping> streamed;
  const MapReport report = run_guarded(engine, request, 3, &streamed);
  EXPECT_TRUE(report.ok());
  EXPECT_EQ(streamed, expected);
  EXPECT_GT(report.stats.faults_injected, 0u);
  EXPECT_EQ(report.stats.batches_dropped, 0u);
}

TEST_F(ChaosEngineTest, ReaderAbortSurfacesAsStructuredFailure) {
  const MappingEngine engine(subjects_, params_);
  MapRequest request;
  request.backend = MapBackend::kPool;
  request.threads = 2;
  request.fault_plan.abort_at(0, "stream.next", 1);  // dies on batch #1

  std::vector<SegmentMapping> streamed;
  const MapReport report = run_guarded(engine, request, 4, &streamed);
  ASSERT_FALSE(report.ok());
  EXPECT_EQ(report.failure->site, "stream.next");
  EXPECT_LE(report.stats.batches, 1u);  // only batch #0 can complete
}

TEST_F(ChaosEngineTest, UnguardedStreamRethrowsInjectedAbort) {
  const MappingEngine engine(subjects_, params_);
  MapRequest request;
  request.backend = MapBackend::kPool;
  request.threads = 2;
  request.fault_plan.abort_at(0, "stream.next", 0);

  std::istringstream in(fasta_);
  io::BatchStream stream(in, 4);
  EXPECT_THROW(
      (void)engine.run_stream(stream, request,
                              [](const MappingEngine::BatchResult&) {}),
      util::FaultAbort);
}

TEST_F(ChaosEngineTest, DroppedReaderBatchIsCountedAndRestStayOrdered) {
  const MappingEngine engine(subjects_, params_);
  const std::size_t batch_size = 4;
  MapRequest request;
  request.backend = MapBackend::kPool;
  request.threads = 2;
  request.fault_plan.drop_at(0, "stream.next", 1);  // second parse vanishes

  std::vector<SegmentMapping> streamed;
  const MapReport report = run_guarded(engine, request, batch_size, &streamed);
  EXPECT_TRUE(report.ok());
  EXPECT_EQ(report.stats.batches_dropped, 1u);
  EXPECT_EQ(report.stats.reads, reads_.size() - batch_size);

  // Everything except the dropped reads [4, 8) arrives, in read order.
  const auto expected = oracle::map_reads(engine.mapper(), reads_);
  std::vector<SegmentMapping> survivors;
  for (const SegmentMapping& mapping : expected) {
    if (mapping.read >= batch_size && mapping.read < 2 * batch_size) continue;
    survivors.push_back(mapping);
  }
  EXPECT_EQ(streamed, survivors);
}

TEST_F(ChaosEngineTest, MapStageAbortSurfacesAsMapFailure) {
  const MappingEngine engine(subjects_, params_);
  MapRequest request;
  request.backend = MapBackend::kPool;
  request.threads = 3;
  request.fault_plan.abort_at(0, "map", 2);

  const MapReport report = run_guarded(engine, request, 3, nullptr);
  ASSERT_FALSE(report.ok());
  EXPECT_EQ(report.failure->site, "map");
  EXPECT_GE(report.stats.faults_injected, 1u);
}

TEST_F(ChaosEngineTest, DroppedMapBatchLeavesNoEmitterHole) {
  const MappingEngine engine(subjects_, params_);
  const std::size_t batch_size = 4;
  MapRequest request;
  request.backend = MapBackend::kPool;
  request.threads = 3;
  request.fault_plan.drop_at(0, "map", 1);  // batch index 1 never emits

  std::vector<SegmentMapping> streamed;
  const MapReport report = run_guarded(engine, request, batch_size, &streamed);
  EXPECT_TRUE(report.ok());
  EXPECT_EQ(report.stats.batches_dropped, 1u);

  const auto expected = oracle::map_reads(engine.mapper(), reads_);
  std::vector<SegmentMapping> survivors;
  for (const SegmentMapping& mapping : expected) {
    if (mapping.read >= batch_size && mapping.read < 2 * batch_size) continue;
    survivors.push_back(mapping);
  }
  EXPECT_EQ(streamed, survivors);
}

TEST_F(ChaosEngineTest, SinkAbortSurfacesAsSinkFailure) {
  const MappingEngine engine(subjects_, params_);
  MapRequest request;
  request.backend = MapBackend::kPool;
  request.threads = 2;
  request.fault_plan.abort_at(0, "sink", 1);

  const MapReport report = run_guarded(engine, request, 4, nullptr);
  ASSERT_FALSE(report.ok());
  EXPECT_EQ(report.failure->site, "sink");
}

TEST_F(ChaosEngineTest, SinkExceptionIsContainedNotRethrown) {
  const MappingEngine engine(subjects_, params_);
  MapRequest request;
  request.backend = MapBackend::kPool;
  request.threads = 2;

  std::istringstream in(fasta_);
  io::BatchStream stream(in, 4);
  int delivered = 0;
  const MapReport report = engine.run_stream_guarded(
      stream, request, [&](const MappingEngine::BatchResult&) {
        if (++delivered == 2) throw std::runtime_error("sink exploded");
      });
  ASSERT_FALSE(report.ok());
  EXPECT_NE(report.failure->message.find("sink exploded"), std::string::npos);
}

}  // namespace
}  // namespace jem::core
