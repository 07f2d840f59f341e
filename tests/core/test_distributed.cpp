#include "core/distributed.hpp"

#include <gtest/gtest.h>

#include <set>
#include <string>

#include "core/dna.hpp"
#include "obs/metrics.hpp"
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

TEST(PartitionByBases, CoversAllSequencesContiguously) {
  io::SequenceSet set;
  util::Xoshiro256ss rng(1);
  for (int i = 0; i < 57; ++i) {
    set.add("s" + std::to_string(i), random_dna(rng, 50 + rng.bounded(500)));
  }
  for (int ranks : {1, 2, 3, 7, 16}) {
    const auto ranges = partition_by_bases(set, ranks);
    ASSERT_EQ(ranges.size(), static_cast<std::size_t>(ranks));
    EXPECT_EQ(ranges.front().first, 0u);
    EXPECT_EQ(ranges.back().second, set.size());
    for (std::size_t r = 1; r < ranges.size(); ++r) {
      EXPECT_EQ(ranges[r].first, ranges[r - 1].second);
    }
  }
}

TEST(PartitionByBases, BalancesBasesApproximately) {
  io::SequenceSet set;
  util::Xoshiro256ss rng(2);
  for (int i = 0; i < 200; ++i) {
    set.add("s" + std::to_string(i), random_dna(rng, 100 + rng.bounded(200)));
  }
  const int ranks = 8;
  const auto ranges = partition_by_bases(set, ranks);
  const double ideal =
      static_cast<double>(set.total_bases()) / static_cast<double>(ranks);
  for (const auto& [begin, end] : ranges) {
    std::uint64_t bases = 0;
    for (io::SeqId id = begin; id < end; ++id) bases += set.length(id);
    // Each rank within one max-sequence-length of the ideal share.
    EXPECT_NEAR(static_cast<double>(bases), ideal, 400.0);
  }
}

TEST(PartitionByBases, MoreRanksThanSequences) {
  io::SequenceSet set;
  set.add("a", "ACGTACGT");
  set.add("b", "ACGT");
  const auto ranges = partition_by_bases(set, 5);
  ASSERT_EQ(ranges.size(), 5u);
  std::size_t covered = 0;
  for (const auto& [begin, end] : ranges) covered += end - begin;
  EXPECT_EQ(covered, set.size());
}

TEST(PartitionByBases, RejectsZeroRanks) {
  io::SequenceSet set;
  EXPECT_THROW((void)partition_by_bases(set, 0), std::invalid_argument);
}

TEST(MappingWireFormat, RoundTrips) {
  SegmentMapping mapping;
  mapping.read = 42;
  mapping.end = ReadEnd::kSuffix;
  mapping.segment_length = 1000;
  mapping.result.subject = 7;
  mapping.result.votes = 28;

  const SegmentMapping back = from_wire(to_wire(mapping));
  EXPECT_EQ(back.read, mapping.read);
  EXPECT_EQ(back.end, mapping.end);
  EXPECT_EQ(back.segment_length, mapping.segment_length);
  EXPECT_EQ(back.result.subject, mapping.result.subject);
  EXPECT_EQ(back.result.votes, mapping.result.votes);
}

TEST(MappingWireFormat, PreservesUnmapped) {
  SegmentMapping mapping;
  mapping.read = 1;
  const SegmentMapping back = from_wire(to_wire(mapping));
  EXPECT_FALSE(back.result.mapped());
}

/// End-to-end fixture: compare distributed runs against the sequential
/// mapper, which is the correctness oracle.
class DistributedTest : public ::testing::Test {
 protected:
  void SetUp() override {
    util::Xoshiro256ss rng(4242);
    genome_ = random_dna(rng, 80'000);
    for (int i = 0; i < 16; ++i) {
      subjects_.add("contig_" + std::to_string(i),
                    genome_.substr(static_cast<std::size_t>(i) * 5000, 5000));
    }
    for (int i = 0; i < 30; ++i) {
      const std::size_t pos = rng.bounded(70'000);
      reads_.add("read_" + std::to_string(i),
                 genome_.substr(pos, 4000 + rng.bounded(6000)));
    }
    params_.k = 16;
    params_.w = 20;
    params_.trials = 12;
    params_.segment_length = 1000;
    params_.seed = 31337;
  }

  void expect_same_mappings(const std::vector<SegmentMapping>& a,
                            const std::vector<SegmentMapping>& b) {
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i) {
      EXPECT_EQ(a[i].read, b[i].read) << i;
      EXPECT_EQ(a[i].end, b[i].end) << i;
      EXPECT_EQ(a[i].result.subject, b[i].result.subject) << i;
      EXPECT_EQ(a[i].result.votes, b[i].result.votes) << i;
    }
  }

  std::string genome_;
  io::SequenceSet subjects_;
  io::SequenceSet reads_;
  MapParams params_;
};

TEST_F(DistributedTest, SingleRankMatchesSequential) {
  const JemMapper mapper(subjects_, params_);
  const auto sequential = oracle::map_reads(mapper, reads_);
  const DistributedResult distributed =
      run_distributed(subjects_, reads_, params_, 1);
  expect_same_mappings(sequential, distributed.mappings);
}

TEST_F(DistributedTest, MultiRankMatchesSequential) {
  const JemMapper mapper(subjects_, params_);
  const auto sequential = oracle::map_reads(mapper, reads_);
  for (int ranks : {2, 3, 4, 8}) {
    const DistributedResult distributed =
        run_distributed(subjects_, reads_, params_, ranks);
    expect_same_mappings(sequential, distributed.mappings);
  }
}

TEST_F(DistributedTest, HybridRanksTimesThreadsMatchesSequential) {
  const JemMapper mapper(subjects_, params_);
  const auto sequential = oracle::map_reads(mapper, reads_);
  const DistributedResult hybrid = run_distributed(
      subjects_, reads_, params_, /*ranks=*/2, SketchScheme::kJem,
      /*threads_per_rank=*/3);
  expect_same_mappings(sequential, hybrid.mappings);
}

TEST_F(DistributedTest, HybridRejectsZeroThreads) {
  EXPECT_THROW((void)run_distributed(subjects_, reads_, params_, 2,
                                     SketchScheme::kJem, 0),
               std::invalid_argument);
}

TEST_F(DistributedTest, RankMapStepsPublishHotpathMetrics) {
  obs::Registry registry;
  obs::ObsHooks hooks;
  hooks.metrics = &registry;
  const DistributedResult result =
      run_distributed(subjects_, reads_, params_, /*ranks=*/4,
                      SketchScheme::kJem, /*threads_per_rank=*/1, {}, hooks);
  const obs::MetricsSnapshot snapshot = registry.snapshot();
  const obs::MetricValue* seen = snapshot.find("core.hotpath.segments_seen");
  ASSERT_NE(seen, nullptr);
  EXPECT_EQ(seen->value, result.mappings.size());
  const obs::MetricValue* lanes = snapshot.find("core.minimizer.lanes");
  ASSERT_NE(lanes, nullptr);
  EXPECT_GE(lanes->level, 1);
  const obs::MetricValue* sketch = snapshot.find("core.sketch.lanes");
  ASSERT_NE(sketch, nullptr);
  EXPECT_EQ(sketch->level, sketch_lanes());
}

TEST_F(DistributedTest, PartitionedRunPublishesKernelLanes) {
  // The partitioned strategy maps by its own probe exchange, not through
  // the engine, but its map timings still come from these kernels.
  obs::Registry registry;
  obs::ObsHooks hooks;
  hooks.metrics = &registry;
  (void)run_distributed_partitioned(subjects_, reads_, params_, /*ranks=*/4,
                                    SketchScheme::kJem, {}, hooks);
  const obs::MetricsSnapshot snapshot = registry.snapshot();
  const obs::MetricValue* scan = snapshot.find("core.minimizer.lanes");
  ASSERT_NE(scan, nullptr);
  EXPECT_EQ(scan->level, minimizer_scan_lanes());
  const obs::MetricValue* sketch = snapshot.find("core.sketch.lanes");
  ASSERT_NE(sketch, nullptr);
  EXPECT_EQ(sketch->level, sketch_lanes());
}

TEST_F(DistributedTest, PartitionedTableMatchesSequential) {
  const JemMapper mapper(subjects_, params_);
  const auto sequential = oracle::map_reads(mapper, reads_);
  for (int ranks : {1, 2, 4, 8}) {
    const DistributedResult partitioned =
        run_distributed_partitioned(subjects_, reads_, params_, ranks);
    expect_same_mappings(sequential, partitioned.mappings);
  }
}

TEST_F(DistributedTest, PartitionedMatchesSequentialAtAnyTrialCount) {
  // T = 65 and T = 150 carry more than one trial-set word per probe.
  for (const SketchScheme scheme :
       {SketchScheme::kJem, SketchScheme::kClassicMinhash}) {
    for (const int trials : {1, 64, 65, 150}) {
      MapParams params = params_;
      params.trials = trials;
      const JemMapper mapper(subjects_, params, scheme);
      const auto sequential = oracle::map_reads(mapper, reads_);
      for (const int ranks : {1, 3, 8}) {
        SCOPED_TRACE("scheme " + std::to_string(static_cast<int>(scheme)) +
                     " T " + std::to_string(trials) + " ranks " +
                     std::to_string(ranks));
        const DistributedResult partitioned = run_distributed_partitioned(
            subjects_, reads_, params, ranks, scheme);
        expect_same_mappings(sequential, partitioned.mappings);
      }
    }
  }
}

TEST_F(DistributedTest, PartitionedProbesEachDistinctKmerOnce) {
  // The all-to-all volume is entry routing, one probe of 2 + ceil(T / 64)
  // words per distinct (segment, k-mer) pair, one 12-byte reply per
  // posting in a probed trial, and each call's per-destination counts.
  // The pairs and replies are counted here from the allocating sketch and
  // the per-trial lookup, not from the driver's own code.
  for (const int trials : {12, 65}) {
    MapParams params = params_;
    params.trials = trials;
    const JemMapper mapper(subjects_, params);
    std::uint64_t pairs = 0;
    std::uint64_t replies = 0;
    for (io::SeqId read = 0; read < reads_.size(); ++read) {
      for (const EndSegment& segment : extract_end_segments(
               read, reads_.bases(read), params.segment_length)) {
        const Sketch sketch = make_sketch(segment.bases, params,
                                          SketchScheme::kJem,
                                          mapper.hashes());
        std::set<KmerCode> distinct;
        for (int t = 0; t < trials; ++t) {
          for (const KmerCode kmer :
               sketch.per_trial[static_cast<std::size_t>(t)]) {
            distinct.insert(kmer);
            replies += mapper.table().flat().lookup(t, kmer).size();
          }
        }
        pairs += distinct.size();
      }
    }
    const std::uint64_t stride_bytes =
        8 * (2 + (static_cast<std::uint64_t>(trials) + 63) / 64);
    for (const int ranks : {1, 3}) {
      SCOPED_TRACE("T " + std::to_string(trials) + " ranks " +
                   std::to_string(ranks));
      const DistributedResult partitioned =
          run_distributed_partitioned(subjects_, reads_, params, ranks);
      std::uint64_t sent = 0;
      for (const std::uint64_t bytes :
           partitioned.report.comm.per_site.at("all_to_allv").sent_bytes) {
        sent += bytes;
      }
      const auto p = static_cast<std::uint64_t>(ranks);
      const std::uint64_t headers = 3 * p * p * sizeof(std::uint64_t);
      EXPECT_EQ(sent, mapper.table().size() * sizeof(SketchEntry) +
                          pairs * stride_bytes + replies * 12 + headers);
    }
  }
}

TEST_F(DistributedTest, PartitionedTableShrinksPerRankMemory) {
  const DistributedResult replicated =
      run_distributed(subjects_, reads_, params_, 8);
  const DistributedResult partitioned =
      run_distributed_partitioned(subjects_, reads_, params_, 8);
  ASSERT_GT(replicated.report.table_entries_max, 0u);
  ASSERT_GT(partitioned.report.table_entries_max, 0u);
  // A shard must be much smaller than the full replicated table (ideally
  // 1/8; allow generous slack for hash imbalance).
  EXPECT_LT(partitioned.report.table_entries_max,
            replicated.report.table_entries_max / 3);
}

TEST_F(DistributedTest, PartitionedRespectMinVotes) {
  MapParams strict = params_;
  strict.min_votes = static_cast<std::uint32_t>(params_.trials) + 1;
  const DistributedResult partitioned =
      run_distributed_partitioned(subjects_, reads_, strict, 4);
  for (const SegmentMapping& mapping : partitioned.mappings) {
    EXPECT_FALSE(mapping.result.mapped());
  }
}

TEST(AllToAllv, RoutesPayloadsBySourceAndDest) {
  mpisim::run_spmd_ft(3, [](mpisim::Comm& comm) {
    // Rank r sends {r*10 + d} to each rank d, with d+1 copies.
    std::vector<std::vector<int>> outgoing(3);
    for (int d = 0; d < 3; ++d) {
      outgoing[static_cast<std::size_t>(d)].assign(
          static_cast<std::size_t>(d + 1), comm.rank() * 10 + d);
    }
    const auto incoming = comm.all_to_allv(outgoing);
    ASSERT_EQ(incoming.size(), 3u);
    for (int s = 0; s < 3; ++s) {
      const auto& payload = incoming[static_cast<std::size_t>(s)];
      ASSERT_EQ(payload.size(),
                static_cast<std::size_t>(comm.rank() + 1));
      for (int value : payload) {
        EXPECT_EQ(value, s * 10 + comm.rank());
      }
    }
  });
}

TEST(AllToAllv, HandlesEmptyLanes) {
  mpisim::run_spmd_ft(2, [](mpisim::Comm& comm) {
    std::vector<std::vector<double>> outgoing(2);
    if (comm.rank() == 0) outgoing[1] = {3.14};
    const auto incoming = comm.all_to_allv(outgoing);
    if (comm.rank() == 1) {
      ASSERT_EQ(incoming[0].size(), 1u);
      EXPECT_DOUBLE_EQ(incoming[0][0], 3.14);
    } else {
      EXPECT_TRUE(incoming[0].empty());
      EXPECT_TRUE(incoming[1].empty());
    }
  });
}

TEST(AllToAllv, RejectsWrongLaneCount) {
  mpisim::run_spmd_ft(2, [](mpisim::Comm& comm) {
    std::vector<std::vector<int>> wrong(3);
    EXPECT_THROW((void)comm.all_to_allv(wrong), std::logic_error);
    // Keep the collective schedule aligned across ranks afterwards.
    std::vector<std::vector<int>> ok(2);
    (void)comm.all_to_allv(ok);
  });
}

TEST_F(DistributedTest, StagedMatchesSequential) {
  const JemMapper mapper(subjects_, params_);
  const auto sequential = oracle::map_reads(mapper, reads_);
  for (int ranks : {1, 4, 8}) {
    const DistributedResult staged =
        run_staged(subjects_, reads_, params_, ranks);
    expect_same_mappings(sequential, staged.mappings);
  }
}

TEST_F(DistributedTest, ReportAccountsAllSteps) {
  const DistributedResult result =
      run_distributed(subjects_, reads_, params_, 4);
  EXPECT_EQ(result.report.ranks, 4);
  EXPECT_GT(result.report.sketch_subjects_s, 0.0);
  EXPECT_GT(result.report.map_queries_s, 0.0);
  EXPECT_GT(result.report.sketch_bytes, 0u);
  EXPECT_EQ(result.report.queries_mapped, result.mappings.size());
  EXPECT_GE(result.report.total_s(), result.report.compute_s());
}

TEST_F(DistributedTest, StagedReportChargesModeledComm) {
  mpisim::NetworkModel model;
  const DistributedResult staged =
      run_staged(subjects_, reads_, params_, 8, model);
  EXPECT_GT(staged.report.allgather_s, 0.0);
  // Modeled comm must equal the model applied to the measured volume
  // (staged mode charges allgather once).
  EXPECT_NEAR(staged.report.allgather_s,
              model.allgatherv_s(8, staged.report.sketch_bytes), 1e-12);
}

TEST_F(DistributedTest, StagedThroughputIsPositive) {
  const DistributedResult staged =
      run_staged(subjects_, reads_, params_, 4);
  EXPECT_GT(staged.report.query_throughput(), 0.0);
}

TEST_F(DistributedTest, MappingsAreSortedByReadThenEnd) {
  const DistributedResult result =
      run_distributed(subjects_, reads_, params_, 4);
  for (std::size_t i = 1; i < result.mappings.size(); ++i) {
    const auto& prev = result.mappings[i - 1];
    const auto& curr = result.mappings[i];
    const bool ordered =
        prev.read < curr.read ||
        (prev.read == curr.read &&
         static_cast<int>(prev.end) <= static_cast<int>(curr.end));
    EXPECT_TRUE(ordered) << "index " << i;
  }
}

}  // namespace
}  // namespace jem::core
