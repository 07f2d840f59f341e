// Chaos tests for the streaming MappingEngine pipeline: injected reader /
// map / sink faults must shut the pipeline down and rethrow the first
// failure (reader, then sink, then worker) naming its site, never hang —
// and delay-only plans must leave the mapped output bit-identical.
#include "core/engine.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstddef>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
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

/// Runs `body` and returns the site of the FaultAbort it threw; empty when
/// it threw none.
template <typename Body>
std::string abort_site(const Body& body) {
  try {
    body();
  } catch (const util::FaultAbort& abort) {
    return abort.site();
  }
  return "";
}

/// A string stream that records when its reader first asks for bytes past
/// the end, i.e. when the last record is being parsed.
class EofSignalBuf : public std::stringbuf {
 public:
  explicit EofSignalBuf(const std::string& text) : std::stringbuf(text) {}

  [[nodiscard]] bool eof_seen() const { return eof_seen_.load(); }

 protected:
  std::streamsize xsgetn(char* out, std::streamsize n) override {
    const std::streamsize got = std::stringbuf::xsgetn(out, n);
    if (got == 0) eof_seen_.store(true);
    return got;
  }

 private:
  std::atomic<bool> eof_seen_{false};
};

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
    params_ = MapParams{
        .k = 16, .w = 20, .trials = 8, .segment_length = 800, .seed = 7};
    params_.validate();
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

  /// Runs the streaming pipeline and collects globalized mappings.
  EngineStats run(const MappingEngine& engine, const MapRequest& request,
                  std::size_t batch_size,
                  std::vector<SegmentMapping>* out) const {
    std::istringstream in(fasta_);
    io::BatchStream stream(in, batch_size);
    return engine.run_stream(
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
  const EngineStats stats = run(engine, request, 5, &streamed);
  EXPECT_EQ(streamed, expected);
  EXPECT_EQ(stats.reads, reads_.size());
  EXPECT_EQ(stats.faults_injected, 0u);
}

TEST_F(ChaosEngineTest, DelayOnlyPlanKeepsStreamOutputBitIdentical) {
  const MappingEngine engine(subjects_, params_);
  const auto expected = oracle::map_reads(engine.mapper(), reads_);

  for (const MapBackend backend : {MapBackend::kSerial, MapBackend::kPool}) {
    SCOPED_TRACE("backend=" + std::to_string(static_cast<int>(backend)));
    MapRequest request;
    request.backend = backend;
    request.threads = 4;
    request.fault_plan.delay_at(util::FaultPlan::kAnyRank, "",
                                util::FaultPlan::kAnyInvocation,
                                milliseconds(1));
    std::vector<SegmentMapping> streamed;
    const EngineStats stats = run(engine, request, 3, &streamed);
    EXPECT_EQ(streamed, expected);
    // Every batch is delayed at each of stream.next, map and sink.
    EXPECT_EQ(stats.faults_injected, 3 * stats.batches);
  }
}

TEST_F(ChaosEngineTest, ReaderAbortSurfacesAsStructuredFailure) {
  const MappingEngine engine(subjects_, params_);
  MapRequest request;
  request.backend = MapBackend::kPool;
  request.threads = 2;
  request.fault_plan.abort_at(0, "stream.next", 1);  // dies on batch #1

  std::vector<SegmentMapping> streamed;
  EXPECT_EQ(abort_site([&] { (void)run(engine, request, 4, &streamed); }),
            "stream.next");
  for (const SegmentMapping& mapping : streamed) {
    EXPECT_LT(mapping.read, 4u);  // only batch #0 can reach the sink
  }
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

TEST_F(ChaosEngineTest, MapStageAbortSurfacesAsMapFailure) {
  const MappingEngine engine(subjects_, params_);
  MapRequest request;
  request.backend = MapBackend::kPool;
  request.threads = 3;
  request.fault_plan.abort_at(0, "map", 2);

  EXPECT_EQ(abort_site([&] { (void)run(engine, request, 3, nullptr); }),
            "map");
}

TEST_F(ChaosEngineTest, SinkAbortSurfacesAsSinkFailure) {
  const MappingEngine engine(subjects_, params_);
  MapRequest request;
  request.backend = MapBackend::kPool;
  request.threads = 2;
  request.fault_plan.abort_at(0, "sink", 1);

  EXPECT_EQ(abort_site([&] { (void)run(engine, request, 4, nullptr); }),
            "sink");
}

TEST_F(ChaosEngineTest, SinkExceptionIsRethrown) {
  const MappingEngine engine(subjects_, params_);
  MapRequest request;
  request.backend = MapBackend::kPool;
  request.threads = 2;

  std::istringstream in(fasta_);
  io::BatchStream stream(in, 4);
  int delivered = 0;
  try {
    (void)engine.run_stream(stream, request,
                            [&](const MappingEngine::BatchResult&) {
                              if (++delivered == 2) {
                                throw std::runtime_error("sink exploded");
                              }
                            });
    FAIL() << "expected the sink's exception";
  } catch (const std::runtime_error& error) {
    EXPECT_STREQ(error.what(), "sink exploded");
  }
  EXPECT_EQ(delivered, 2);  // the pipeline stops feeding a failed sink
}

TEST_F(ChaosEngineTest, ReaderFailureIsRethrownBeforeSinkFailure) {
  // Both fail in every interleaving: batch #0 is queued before the reader
  // dies on batch #1, and queued batches stay poppable after shutdown.
  const MappingEngine engine(subjects_, params_);
  MapRequest request;
  request.backend = MapBackend::kPool;
  request.threads = 2;
  request.fault_plan.abort_at(0, "stream.next", 1).abort_at(0, "sink", 0);

  EXPECT_EQ(abort_site([&] { (void)run(engine, request, 4, nullptr); }),
            "stream.next");
}

TEST_F(ChaosEngineTest, SinkFailureIsRethrownBeforeWorkerFailure) {
  // One worker. The sink holds batch #0 until the reader has parsed the
  // last batch (3 batches fit the queue), so batch #1 is queued when the
  // sink fails; the worker then pops it and dies at "map".
  const MappingEngine engine(subjects_, params_);
  MapRequest request;
  request.fault_plan.abort_at(0, "map", 1);

  EofSignalBuf buffer(fasta_);
  std::istream in(&buffer);
  io::BatchStream stream(in, 10);
  try {
    (void)engine.run_stream(
        stream, request, [&](const MappingEngine::BatchResult&) {
          while (!buffer.eof_seen()) {
            std::this_thread::sleep_for(milliseconds(1));
          }
          throw std::runtime_error("sink failed first");
        });
    FAIL() << "expected the sink's exception";
  } catch (const util::FaultAbort& abort) {
    FAIL() << "worker failure rethrown at " << abort.site();
  } catch (const std::runtime_error& error) {
    EXPECT_STREQ(error.what(), "sink failed first");
  }
}

TEST_F(ChaosEngineTest, ParseErrorIsRethrownBeforeSinkFailure) {
  // Batch #1 ends in a record truncated after its header; batch #0 is
  // queued before the reader parses it, and its sink call fails.
  const MappingEngine engine(subjects_, params_);
  MapRequest request;
  request.backend = MapBackend::kPool;
  request.threads = 2;
  request.fault_plan.abort_at(0, "sink", 0);

  io::SequenceSet head;
  for (io::SeqId read = 0; read < 5; ++read) {
    head.add(reads_.name(read), reads_.bases(read));
  }
  std::ostringstream fasta;
  io::write_fasta(fasta, head);
  std::istringstream in(fasta.str() + ">read_cut\n");
  io::BatchStream stream(in, 4);
  EXPECT_THROW((void)engine.run_stream(stream, request,
                                       [](const MappingEngine::BatchResult&) {
                                       }),
               io::ParseError);
}

}  // namespace
}  // namespace jem::core
