// Property / differential tests: randomized seeded genomes pushed through
// the whole sim -> sketch -> map pipeline, checking that every execution
// configuration (backend x batch size x fault plan) of MappingEngine is
// bit-identical to the sequential golden path, and that the flat-index hot
// path agrees with the reference oracle on every sampled segment.
#include <gtest/gtest.h>

#include <chrono>
#include <cstddef>
#include <sstream>
#include <string>
#include <vector>

#include "core/engine.hpp"
#include "io/batch_stream.hpp"
#include "io/fasta.hpp"
#include "oracle/kernels.hpp"
#include "oracle/sequential_mapper.hpp"
#include "sim/contigs.hpp"
#include "sim/genome.hpp"
#include "sim/hifi_reads.hpp"
#include "util/fault_plan.hpp"

namespace jem::core {
namespace {

using std::chrono::milliseconds;

struct SimCase {
  io::SequenceSet contigs;
  io::SequenceSet reads;
};

/// One randomized end-to-end input, deterministic in `seed`.
SimCase make_case(std::uint64_t seed) {
  sim::GenomeParams genome_params;
  genome_params.length = 50'000;
  genome_params.repeat_fraction = 0.10;
  genome_params.seed = seed;
  const std::string genome = sim::simulate_genome(genome_params);

  sim::ContigSimParams contig_params;
  contig_params.mean_length = 4000.0;
  contig_params.sd_length = 2000.0;
  contig_params.coverage_fraction = 0.95;
  contig_params.seed = seed + 1;

  sim::HiFiParams read_params;
  read_params.coverage = 2.0;
  read_params.mean_length = 2500.0;
  read_params.sd_length = 800.0;
  read_params.min_length = 1200;
  read_params.max_length = 6000;
  read_params.seed = seed + 2;

  return SimCase{sim::simulate_contigs(genome, contig_params).contigs,
                 sim::simulate_hifi_reads(genome, read_params).reads};
}

MapParams small_params() {
  const MapParams params{
      .k = 16, .w = 20, .trials = 8, .segment_length = 800, .seed = 5};
  params.validate();
  return params;
}

constexpr std::uint64_t kSeeds[] = {101, 202};

TEST(PropertyEngine, EveryBackendAndBatchSizeMatchesSequential) {
  for (const std::uint64_t seed : kSeeds) {
    SCOPED_TRACE("seed=" + std::to_string(seed));
    const SimCase input = make_case(seed);
    ASSERT_GT(input.reads.size(), 0u);
    const MappingEngine engine(input.contigs, small_params());
    const auto golden = oracle::map_reads(engine.mapper(), input.reads);

    for (const MapBackend backend :
         {MapBackend::kSerial, MapBackend::kPool}) {
      for (const std::size_t batch_size :
           {std::size_t{1}, std::size_t{3}, std::size_t{17}, std::size_t{0}}) {
        SCOPED_TRACE("backend=" + std::to_string(static_cast<int>(backend)) +
                     " batch=" + std::to_string(batch_size));
        MapRequest request;
        request.backend = backend;
        request.batch_size = batch_size;
        request.threads = 3;
        EXPECT_EQ(engine.run(input.reads, request).mappings, golden);
      }
    }
  }
}

TEST(PropertyEngine, StreamingMatchesInMemoryForEveryBatchSize) {
  for (const std::uint64_t seed : kSeeds) {
    SCOPED_TRACE("seed=" + std::to_string(seed));
    const SimCase input = make_case(seed);
    const MappingEngine engine(input.contigs, small_params());
    const auto golden = oracle::map_reads(engine.mapper(), input.reads);

    std::ostringstream fasta;
    io::write_fasta(fasta, input.reads);

    for (const std::size_t batch_size :
         {std::size_t{1}, std::size_t{5}, std::size_t{32}}) {
      SCOPED_TRACE("batch=" + std::to_string(batch_size));
      std::istringstream in(fasta.str());
      io::BatchStream stream(in, batch_size);
      MapRequest request;
      request.backend = MapBackend::kPool;
      request.threads = 3;
      std::vector<SegmentMapping> streamed;
      const EngineStats stats = engine.run_stream(
          stream, request, [&](const MappingEngine::BatchResult& result) {
            for (SegmentMapping mapping : result.mappings) {
              mapping.read = static_cast<io::SeqId>(mapping.read +
                                                    result.batch.first_record);
              streamed.push_back(mapping);
            }
          });
      EXPECT_EQ(streamed, golden);
      EXPECT_EQ(stats.reads, input.reads.size());
    }
  }
}

TEST(PropertyEngine, RandomDelayPlansNeverChangeStreamOutput) {
  const SimCase input = make_case(kSeeds[0]);
  const MappingEngine engine(input.contigs, small_params());
  const auto golden = oracle::map_reads(engine.mapper(), input.reads);

  std::ostringstream fasta;
  io::write_fasta(fasta, input.reads);

  for (const MapBackend backend : {MapBackend::kSerial, MapBackend::kPool}) {
    for (const std::uint64_t plan_seed : {1u, 2u, 3u}) {
      SCOPED_TRACE("backend=" + std::to_string(static_cast<int>(backend)) +
                   " plan_seed=" + std::to_string(plan_seed));
      util::RandomFaultRates rates;
      rates.delay = 0.3;
      rates.max_delay = milliseconds(2);

      MapRequest request;
      request.backend = backend;
      request.threads = 3;
      request.fault_plan = util::FaultPlan::random(plan_seed, rates);

      std::istringstream in(fasta.str());
      io::BatchStream stream(in, 4);
      std::vector<SegmentMapping> streamed;
      const EngineStats stats = engine.run_stream(
          stream, request, [&](const MappingEngine::BatchResult& result) {
            for (SegmentMapping mapping : result.mappings) {
              mapping.read = static_cast<io::SeqId>(mapping.read +
                                                    result.batch.first_record);
              streamed.push_back(mapping);
            }
          });
      EXPECT_EQ(streamed, golden);
      EXPECT_GT(stats.faults_injected, 0u);
    }
  }
}

TEST(PropertyEngine, FlatIndexPathMatchesReferenceOracleOnSampledSegments) {
  for (const std::uint64_t seed : kSeeds) {
    SCOPED_TRACE("seed=" + std::to_string(seed));
    const SimCase input = make_case(seed);
    const MapParams params = small_params();
    const MappingEngine engine(input.contigs, params);
    MapScratch scratch(input.contigs.size());
    oracle::ReferenceCounters counters(input.contigs.size());

    const std::size_t l = params.segment_length;
    int sampled = 0;
    for (io::SeqId read = 0; read < input.reads.size(); ++read) {
      const std::string_view bases = input.reads.bases(read);
      if (bases.size() < l) continue;
      for (const std::string_view segment :
           {bases.substr(0, l), bases.substr(bases.size() - l)}) {
        const MapResult fast = engine.mapper().map_segment(segment, scratch);
        const MapResult reference =
            oracle::map_segment_reference(engine.mapper(), segment, counters);
        EXPECT_EQ(fast, reference);
        ++sampled;
      }
    }
    EXPECT_GT(sampled, 0);
  }
}

}  // namespace
}  // namespace jem::core
