#include "core/engine.hpp"

#include <gtest/gtest.h>

#include <cstddef>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "core/dna.hpp"
#include "io/batch_stream.hpp"
#include "io/fasta.hpp"
#include "oracle/sequential_mapper.hpp"
#include "util/prng.hpp"

namespace jem::core {
namespace {

std::string random_dna(util::Xoshiro256ss& rng, std::size_t length) {
  std::string seq(length, 'A');
  for (char& c : seq) {
    c = code_base(static_cast<std::uint8_t>(rng.bounded(4)));
  }
  return seq;
}

const char* backend_name(MapBackend backend) {
  switch (backend) {
    case MapBackend::kSerial: return "serial";
    case MapBackend::kPool: return "pool";
  }
  return "?";
}

/// Fixture: the MapperTest genome/contigs plus a read set with ragged
/// lengths, so batch sizes {1, 7, 64, all} all hit uneven tails.
class EngineGoldenTest : public ::testing::Test {
 protected:
  void SetUp() override {
    util::Xoshiro256ss rng(777);
    genome_ = random_dna(rng, 60'000);
    for (int i = 0; i < 10; ++i) {
      subjects_.add("contig_" + std::to_string(i),
                    genome_.substr(static_cast<std::size_t>(i) * 6000, 6000));
    }
    params_ = MapParams{
        .k = 16, .w = 20, .trials = 16, .segment_length = 1000, .seed = 99};
    params_.validate();
    util::Xoshiro256ss read_rng(555);
    for (int i = 0; i < 30; ++i) {
      const std::size_t pos = read_rng.bounded(50'000);
      const std::size_t length = 1500 + read_rng.bounded(6000);
      reads_.add("read_" + std::to_string(i), genome_.substr(pos, length));
    }
  }

  [[nodiscard]] io::SeqId num_reads() const {
    return static_cast<io::SeqId>(reads_.size());
  }

  std::string genome_;
  io::SequenceSet subjects_;
  io::SequenceSet reads_;
  MapParams params_;
};

TEST_F(EngineGoldenTest, BitIdenticalToSequentialAcrossAllCombinations) {
  const MappingEngine engine(subjects_, params_);
  const auto expected_ends = oracle::map_reads(engine.mapper(), reads_);
  const auto expected_tiled =
      oracle::map_reads_tiled(engine.mapper(), reads_, 0, num_reads());
  const auto expected_topx =
      oracle::map_reads_topx(engine.mapper(), reads_, 3, 0, num_reads());

  for (const MapBackend backend :
       {MapBackend::kSerial, MapBackend::kPool}) {
    for (const std::size_t batch_size : {std::size_t{1}, std::size_t{7},
                                         std::size_t{64}, std::size_t{0}}) {
      for (const std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
        SCOPED_TRACE(std::string("backend=") + backend_name(backend) +
                     " batch=" + std::to_string(batch_size) +
                     " threads=" + std::to_string(threads));
        MapRequest request;
        request.backend = backend;
        request.batch_size = batch_size;
        request.threads = threads;

        request.mode = MapMode::kEnds;
        const MapReport ends = engine.run(reads_, request);
        EXPECT_EQ(ends.mappings, expected_ends);
        EXPECT_TRUE(ends.topx.empty());
        EXPECT_EQ(ends.stats.reads, reads_.size());
        EXPECT_EQ(ends.stats.segments, expected_ends.size());

        request.mode = MapMode::kTiled;
        EXPECT_EQ(engine.run(reads_, request).mappings, expected_tiled);

        request.mode = MapMode::kTopX;
        request.top_x = 3;
        const MapReport topx = engine.run(reads_, request);
        EXPECT_EQ(topx.topx, expected_topx);
        EXPECT_TRUE(topx.mappings.empty());
      }
    }
  }
}

TEST_F(EngineGoldenTest, ClaimedBatchesWriteInPlaceAtEveryThreadCount) {
  // Reads of every length around ℓ (no segment, one, two, three) between
  // the fixture's long reads: a worker that mis-sizes or mis-places one
  // read's slots shifts every later segment. Batch sizes 1 and auto, 1-4
  // pool workers, all three modes; every run must be the sequential
  // oracle's, with ceil(n / batch) batches and every segment counted once
  // by core.hotpath.segments_seen.
  const std::size_t l = params_.segment_length;
  const std::size_t corners[] = {0, 1, l - 1, l, l + 1, 2 * l - 1, 2 * l,
                                 2 * l + 1};
  io::SequenceSet reads;
  util::Xoshiro256ss rng(4242);
  for (std::size_t i = 0; i < 150; ++i) {
    const std::size_t length =
        i % 3 == 0 ? reads_.length(static_cast<io::SeqId>(i % 30))
                   : corners[i % 8];
    reads.add("read_" + std::to_string(i),
              genome_.substr(rng.bounded(genome_.size() - length), length));
  }
  const std::size_t n = reads.size();
  const auto all = static_cast<io::SeqId>(n);

  const MappingEngine engine(subjects_, params_);
  const JemMapper& mapper = engine.mapper();
  const auto ends = oracle::map_reads(mapper, reads);
  const auto tiled = oracle::map_reads_tiled(mapper, reads, 0, all);
  const auto topx = oracle::map_reads_topx(mapper, reads, 3, 0, all);

  for (const MapBackend backend :
       {MapBackend::kSerial, MapBackend::kPool}) {
    const std::size_t max_threads = backend == MapBackend::kPool ? 4 : 1;
    for (std::size_t threads = 1; threads <= max_threads; ++threads) {
      for (const std::size_t batch_size : {std::size_t{1}, std::size_t{0}}) {
        // Auto: one batch for kSerial, ~64 per worker for kPool.
        const std::size_t batch =
            batch_size != 0                  ? batch_size
            : backend == MapBackend::kSerial ? n
                                             : (n + 64 * threads - 1) /
                                                   (64 * threads);
        for (const MapMode mode :
             {MapMode::kEnds, MapMode::kTiled, MapMode::kTopX}) {
          SCOPED_TRACE(std::string("backend=") + backend_name(backend) +
                       " threads=" + std::to_string(threads) +
                       " batch=" + std::to_string(batch_size) +
                       " mode=" + std::to_string(static_cast<int>(mode)));
          obs::Registry registry;
          MapRequest request;
          request.backend = backend;
          request.threads = threads;
          request.batch_size = batch_size;
          request.mode = mode;
          request.obs.metrics = &registry;
          const MapReport report = engine.run(reads, request);
          if (mode == MapMode::kTopX) {
            EXPECT_EQ(report.topx, topx);
            EXPECT_TRUE(report.mappings.empty());
          } else {
            EXPECT_EQ(report.mappings, mode == MapMode::kEnds ? ends : tiled);
            EXPECT_TRUE(report.topx.empty());
          }
          EXPECT_EQ(report.stats.batches, (n + batch - 1) / batch);
          EXPECT_EQ(report.stats.reads, n);
          EXPECT_EQ(report.stats.segments,
                    report.mappings.size() + report.topx.size());
          EXPECT_EQ(registry.counter("core.hotpath.segments_seen").value(),
                    report.stats.segments);
          // Every segment's minimizers are scanned once, in a lane group or
          // alone; a one-read batch's two end segments never fill a group.
          const std::uint64_t grouped =
              registry.counter("core.hotpath.segments_grouped").value();
          EXPECT_EQ(grouped +
                        registry.counter("core.hotpath.segments_single").value(),
                    report.stats.segments);
          if (minimizer_scan_lanes() == 1 ||
              (batch == 1 && mode != MapMode::kTiled)) {
            EXPECT_EQ(grouped, 0u);
          } else if (mode == MapMode::kTiled || batch > 8) {
            EXPECT_GT(grouped, 0u);
          }
        }
      }
    }
  }
}

TEST_F(EngineGoldenTest, RangeRunMatchesSequentialWithGlobalReadIds) {
  const MappingEngine engine(subjects_, params_);
  const JemMapper& mapper = engine.mapper();
  const io::SeqId n = num_reads();
  const std::vector<std::pair<io::SeqId, io::SeqId>> ranges = {
      {0, n}, {3, 17}, {11, 12}, {9, 9}, {n, n}, {n - 5, n}};

  for (const MapBackend backend :
       {MapBackend::kSerial, MapBackend::kPool}) {
    for (const std::size_t batch_size :
         {std::size_t{1}, std::size_t{7}, std::size_t{0}}) {
      for (const auto& [begin, end] : ranges) {
        SCOPED_TRACE(std::string("backend=") + backend_name(backend) +
                     " batch=" + std::to_string(batch_size) + " range=[" +
                     std::to_string(begin) + ", " + std::to_string(end) +
                     ")");
        MapRequest request;
        request.backend = backend;
        request.batch_size = batch_size;
        request.threads = 3;

        request.mode = MapMode::kEnds;
        const MapReport ends = engine.run(reads_, begin, end, request);
        EXPECT_EQ(ends.mappings,
                  oracle::map_reads(mapper, reads_, begin, end));
        EXPECT_EQ(ends.stats.reads, end - begin);

        request.mode = MapMode::kTiled;
        EXPECT_EQ(engine.run(reads_, begin, end, request).mappings,
                  oracle::map_reads_tiled(mapper, reads_, begin, end));

        request.mode = MapMode::kTopX;
        request.top_x = 3;
        EXPECT_EQ(engine.run(reads_, begin, end, request).topx,
                  oracle::map_reads_topx(mapper, reads_, 3, begin, end));
      }
    }
  }

  const MapRequest request;
  EXPECT_THROW((void)engine.run(reads_, 5, 4, request),
               std::invalid_argument);
  EXPECT_THROW((void)engine.run(reads_, 0, n + 1, request),
               std::invalid_argument);
  EXPECT_THROW((void)engine.run(reads_, n + 1, n + 1, request),
               std::invalid_argument);
}

TEST_F(EngineGoldenTest, StreamingPipelineMatchesSequential) {
  const MappingEngine engine(subjects_, params_);
  const auto expected = oracle::map_reads(engine.mapper(), reads_);
  std::ostringstream fasta;
  io::write_fasta(fasta, reads_);

  for (const MapBackend backend : {MapBackend::kSerial, MapBackend::kPool}) {
    for (const std::size_t batch_size :
         {std::size_t{1}, std::size_t{7}, std::size_t{64}}) {
      for (const std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
        SCOPED_TRACE(std::string("backend=") + backend_name(backend) +
                     " batch=" + std::to_string(batch_size) +
                     " threads=" + std::to_string(threads));
        std::istringstream in(fasta.str());
        io::BatchStream stream(in, batch_size);
        MapRequest request;
        request.backend = backend;
        request.threads = threads;

        std::vector<SegmentMapping> collected;
        std::uint64_t expected_index = 0;
        const EngineStats stats = engine.run_stream(
            stream, request, [&](const MappingEngine::BatchResult& result) {
              // In-order, exactly-once delivery.
              EXPECT_EQ(result.batch.index, expected_index++);
              for (SegmentMapping mapping : result.mappings) {
                mapping.read +=
                    static_cast<io::SeqId>(result.batch.first_record);
                collected.push_back(mapping);
              }
            });

        EXPECT_EQ(collected, expected);
        EXPECT_EQ(stats.reads, reads_.size());
        EXPECT_EQ(stats.segments, expected.size());
        EXPECT_EQ(stats.batches,
                  (reads_.size() + batch_size - 1) / batch_size);
        EXPECT_GT(stats.wall_s, 0.0);
      }
    }
  }
}

TEST_F(EngineGoldenTest, StreamingTiledAndTopXModesMatchSequential) {
  const MappingEngine engine(subjects_, params_);
  const auto expected_tiled =
      oracle::map_reads_tiled(engine.mapper(), reads_, 0, num_reads());
  const auto expected_topx =
      oracle::map_reads_topx(engine.mapper(), reads_, 2, 0, num_reads());
  std::ostringstream fasta;
  io::write_fasta(fasta, reads_);

  MapRequest request;
  request.backend = MapBackend::kPool;
  request.threads = 4;

  {
    std::istringstream in(fasta.str());
    io::BatchStream stream(in, 7);
    request.mode = MapMode::kTiled;
    std::vector<SegmentMapping> collected;
    (void)engine.run_stream(
        stream, request, [&](const MappingEngine::BatchResult& result) {
          for (SegmentMapping mapping : result.mappings) {
            mapping.read += static_cast<io::SeqId>(result.batch.first_record);
            collected.push_back(mapping);
          }
        });
    EXPECT_EQ(collected, expected_tiled);
  }
  {
    std::istringstream in(fasta.str());
    io::BatchStream stream(in, 7);
    request.mode = MapMode::kTopX;
    request.top_x = 2;
    std::vector<SegmentTopX> collected;
    (void)engine.run_stream(
        stream, request, [&](const MappingEngine::BatchResult& result) {
          for (SegmentTopX mapping : result.topx) {
            mapping.read += static_cast<io::SeqId>(result.batch.first_record);
            collected.push_back(std::move(mapping));
          }
        });
    EXPECT_EQ(collected, expected_topx);
  }
}

TEST_F(EngineGoldenTest, MinVotesOverrideMatchesStricterMapper) {
  const MappingEngine engine(subjects_, params_);
  MapParams strict = params_;
  strict.min_votes = 8;
  const JemMapper strict_mapper(subjects_, strict);

  MapRequest request;
  request.min_votes = 8;
  EXPECT_EQ(engine.run(reads_, request).mappings,
            oracle::map_reads(strict_mapper, reads_));

  request.mode = MapMode::kTopX;
  request.top_x = 3;
  EXPECT_EQ(engine.run(reads_, request).topx,
            oracle::map_reads_topx(strict_mapper, reads_, 3, 0, num_reads()));
}

TEST_F(EngineGoldenTest, MinVotesBelowMapperFloorThrows) {
  MapParams strict = params_;
  strict.min_votes = 4;
  const MappingEngine engine(subjects_, params_, SketchScheme::kJem);
  const MappingEngine strict_engine(subjects_, strict);
  MapRequest request;
  request.min_votes = 2;
  EXPECT_THROW((void)strict_engine.run(reads_, request),
               std::invalid_argument);
  // At or above the floor is fine.
  MapRequest at_floor;
  at_floor.min_votes = 4;
  EXPECT_NO_THROW((void)strict_engine.run(reads_, at_floor));
  EXPECT_NO_THROW((void)engine.run(reads_, request));
}

TEST_F(EngineGoldenTest, EmptyReadSetYieldsEmptyReport) {
  const MappingEngine engine(subjects_, params_);
  const io::SequenceSet empty;
  for (const MapBackend backend :
       {MapBackend::kSerial, MapBackend::kPool}) {
    MapRequest request;
    request.backend = backend;
    const MapReport report = engine.run(empty, request);
    EXPECT_TRUE(report.mappings.empty());
    EXPECT_EQ(report.stats.batches, 0u);
    EXPECT_EQ(report.stats.segments, 0u);
  }
}

TEST_F(EngineGoldenTest, StreamErrorsPropagateAfterShutdown) {
  const MappingEngine engine(subjects_, params_);
  MapRequest request;
  request.backend = MapBackend::kPool;
  request.threads = 2;

  {
    // Malformed FASTQ mid-stream (quality length mismatch): the reader
    // throws, the pipeline drains.
    std::istringstream in("@r0\nACGT\n+\nIIII\n@r1\nACGT\n+\nII\n");
    io::BatchStream stream(in, 1);
    EXPECT_THROW((void)engine.run_stream(
                     stream, request,
                     [](const MappingEngine::BatchResult&) {}),
                 io::ParseError);
  }
  {
    // A throwing sink aborts the pipeline and resurfaces in the caller.
    std::ostringstream fasta;
    io::write_fasta(fasta, reads_);
    std::istringstream in(fasta.str());
    io::BatchStream stream(in, 1);
    EXPECT_THROW((void)engine.run_stream(
                     stream, request,
                     [](const MappingEngine::BatchResult&) {
                       throw std::runtime_error("sink failure");
                     }),
                 std::runtime_error);
  }
}

TEST(EngineSegmentCount, MatchesBothExtractors) {
  // The count a run sizes its output from, against the segments the
  // extractors really cut, at every length around one and two ℓ.
  for (const std::uint32_t l : {1u, 2u, 7u, 1000u}) {
    for (const std::size_t length :
         {std::size_t{0}, std::size_t{1}, std::size_t{l} - 1, std::size_t{l},
          std::size_t{l} + 1, 2 * std::size_t{l} - 1, 2 * std::size_t{l},
          2 * std::size_t{l} + 1}) {
      const std::string read(length, 'A');
      EXPECT_EQ(segment_count(length, l, false),
                extract_end_segments(0, read, l).size())
          << "l=" << l << " length=" << length;
      EXPECT_EQ(segment_count(length, l, true),
                extract_tiled_segments(0, read, l).size())
          << "l=" << l << " length=" << length;
    }
  }
  EXPECT_EQ(segment_count(5000, 0, false), 0u);
  EXPECT_EQ(segment_count(5000, 0, true), 0u);
}

TEST(EngineRequestTest, ValidateRejectsBadFields) {
  MapRequest request;
  request.min_votes = 0;
  EXPECT_THROW(request.validate(), std::invalid_argument);
  request = {};
  EXPECT_NO_THROW(request.validate());
}

TEST(EngineParamsBuilderTest, BuildsAndValidates) {
  const MapParams params{.k = 18,
                         .w = 50,
                         .ordering = MinimizerOrdering::kRandomHash,
                         .trials = 12,
                         .segment_length = 800,
                         .seed = 7,
                         .min_votes = 2};
  EXPECT_NO_THROW(params.validate());
  EXPECT_EQ(params.k, 18);
  EXPECT_EQ(params.w, 50);
  EXPECT_EQ(params.trials, 12);
  EXPECT_EQ(params.segment_length, 800u);
  EXPECT_EQ(params.seed, 7u);
  EXPECT_EQ(params.min_votes, 2u);
  EXPECT_EQ(params.ordering, MinimizerOrdering::kRandomHash);

  // Invalid configs fail validation, before any run starts.
  EXPECT_THROW(MapParams{.k = 0}.validate(), std::invalid_argument);
  EXPECT_THROW(MapParams{.trials = 0}.validate(), std::invalid_argument);
  EXPECT_THROW(MapParams{.segment_length = 0}.validate(),
               std::invalid_argument);
}

TEST(EngineBatchStreamTest, ChunksRecordsWithGlobalPositions) {
  std::istringstream in(">r0\nACGT\n>r1\nAAAA\n>r2\nCCCC\n>r3\nGGGG\n>r4\nTTTT\n");
  io::BatchStream stream(in, 2);
  io::ReadBatch batch;

  ASSERT_TRUE(stream.next(batch));
  EXPECT_EQ(batch.index, 0u);
  EXPECT_EQ(batch.first_record, 0u);
  ASSERT_EQ(batch.reads.size(), 2u);
  EXPECT_EQ(batch.reads.name(0), "r0");

  ASSERT_TRUE(stream.next(batch));
  EXPECT_EQ(batch.index, 1u);
  EXPECT_EQ(batch.first_record, 2u);

  ASSERT_TRUE(stream.next(batch));  // ragged tail
  EXPECT_EQ(batch.index, 2u);
  EXPECT_EQ(batch.first_record, 4u);
  EXPECT_EQ(batch.reads.size(), 1u);
  EXPECT_EQ(batch.reads.name(0), "r4");

  EXPECT_FALSE(stream.next(batch));
  EXPECT_EQ(stream.batches_read(), 3u);
  EXPECT_EQ(stream.records_read(), 5u);
}

TEST(EngineBatchStreamTest, EmptyInputYieldsNoBatches) {
  std::istringstream in("");
  io::BatchStream stream(in, 8);
  io::ReadBatch batch;
  EXPECT_FALSE(stream.next(batch));
  EXPECT_EQ(stream.batches_read(), 0u);
}

}  // namespace
}  // namespace jem::core
