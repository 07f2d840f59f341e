// Parameterized property sweeps (TEST_P): each suite checks an invariant
// across a grid of parameters rather than at hand-picked points.
#include <gtest/gtest.h>

#include <string>
#include <tuple>

#include "align/banded.hpp"
#include "core/distributed.hpp"
#include "core/end_segments.hpp"
#include "core/kmer.hpp"
#include "core/minimizer.hpp"
#include "core/sketch.hpp"
#include "oracle/kernels.hpp"
#include "oracle/sequential_mapper.hpp"
#include "util/prng.hpp"

namespace jem {
namespace {

std::string random_dna(util::Xoshiro256ss& rng, std::size_t length) {
  std::string seq(length, 'A');
  for (char& c : seq) {
    c = core::code_base(static_cast<std::uint8_t>(rng.bounded(4)));
  }
  return seq;
}

// ---------------------------------------------------------------------------
// K-mer codec identities for every k in [1, 32].
class KmerCodecSweep : public ::testing::TestWithParam<int> {};

TEST_P(KmerCodecSweep, EncodeDecodeRoundTrip) {
  const int k = GetParam();
  const core::KmerCodec codec(k);
  util::Xoshiro256ss rng(static_cast<std::uint64_t>(1000 + k));
  for (int i = 0; i < 30; ++i) {
    const std::string kmer = random_dna(rng, static_cast<std::size_t>(k));
    const auto code = codec.encode(kmer);
    ASSERT_TRUE(code.has_value());
    EXPECT_EQ(codec.decode(*code), kmer);
  }
}

TEST_P(KmerCodecSweep, ReverseComplementInvolutionAndCanonicalInvariance) {
  const int k = GetParam();
  const core::KmerCodec codec(k);
  util::Xoshiro256ss rng(static_cast<std::uint64_t>(2000 + k));
  for (int i = 0; i < 30; ++i) {
    const core::KmerCode code = rng() & codec.mask();
    const core::KmerCode rc = codec.reverse_complement(code);
    EXPECT_EQ(codec.reverse_complement(rc), code);
    EXPECT_EQ(codec.canonical(code), codec.canonical(rc));
  }
}

INSTANTIATE_TEST_SUITE_P(AllK, KmerCodecSweep,
                         ::testing::Values(1, 2, 3, 4, 7, 8, 15, 16, 17, 21,
                                           31, 32));

// ---------------------------------------------------------------------------
// Minimizer scan equals the naive reference across (k, w, ordering).
using MinimizerGrid = std::tuple<int, int, core::MinimizerOrdering>;
class MinimizerSweep : public ::testing::TestWithParam<MinimizerGrid> {};

TEST_P(MinimizerSweep, DequeScanMatchesNaive) {
  const auto [k, w, ordering] = GetParam();
  const core::MinimizerParams params{k, w, ordering};
  util::Xoshiro256ss rng(
      static_cast<std::uint64_t>(k * 1000 + w * 10 +
                                 static_cast<int>(ordering)));
  for (int i = 0; i < 5; ++i) {
    const std::string seq = random_dna(rng, 200 + rng.bounded(800));
    EXPECT_EQ(core::minimizer_scan(seq, params),
              oracle::minimizer_scan_naive(seq, params))
        << "k=" << k << " w=" << w;
  }
}

TEST_P(MinimizerSweep, PositionsStrictlyIncreaseAndKmersAreCanonical) {
  const auto [k, w, ordering] = GetParam();
  const core::MinimizerParams params{k, w, ordering};
  const core::KmerCodec codec(k);
  util::Xoshiro256ss rng(
      static_cast<std::uint64_t>(k * 77 + w * 7 +
                                 static_cast<int>(ordering)));
  const std::string seq = random_dna(rng, 3000);
  const auto minimizers = core::minimizer_scan(seq, params);
  for (std::size_t i = 0; i < minimizers.size(); ++i) {
    if (i > 0) {
      EXPECT_LT(minimizers[i - 1].position, minimizers[i].position);
    }
    EXPECT_EQ(minimizers[i].kmer, codec.canonical(minimizers[i].kmer));
  }
}

INSTANTIATE_TEST_SUITE_P(
    Grid, MinimizerSweep,
    ::testing::Combine(
        ::testing::Values(4, 11, 16),
        ::testing::Values(1, 5, 50),
        ::testing::Values(core::MinimizerOrdering::kLexicographic,
                          core::MinimizerOrdering::kRandomHash)));

// ---------------------------------------------------------------------------
// JEM sketch: fast sliding implementation equals naive Algorithm 1 across T.
class SketchTrialSweep : public ::testing::TestWithParam<int> {};

TEST_P(SketchTrialSweep, FastMatchesNaive) {
  const int trials = GetParam();
  util::Xoshiro256ss rng(static_cast<std::uint64_t>(3000 + trials));
  const std::string seq = random_dna(rng, 4000);
  const auto minimizers = core::minimizer_scan(seq, {12, 8});
  const core::HashFamily hashes(trials, 99);
  const core::Sketch fast = core::sketch_by_jem(minimizers, 600, hashes);
  const core::Sketch naive =
      oracle::sketch_by_jem_naive(minimizers, 600, hashes);
  ASSERT_EQ(fast.trials(), trials);
  for (int t = 0; t < trials; ++t) {
    EXPECT_EQ(fast.per_trial[static_cast<std::size_t>(t)],
              naive.per_trial[static_cast<std::size_t>(t)])
        << "trial " << t;
  }
}

INSTANTIATE_TEST_SUITE_P(Trials, SketchTrialSweep,
                         ::testing::Values(1, 2, 5, 10, 30, 64));

// ---------------------------------------------------------------------------
// Banded edit distance equals the full DP whenever the band suffices.
class BandSweep : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(BandSweep, BandedMatchesFullWithinBand) {
  const std::uint64_t band = GetParam();
  util::Xoshiro256ss rng(4000 + band);
  for (int i = 0; i < 10; ++i) {
    std::string a = random_dna(rng, 80);
    std::string b = a;
    // Apply at most `band` edits so the banded result must be exact.
    const std::uint64_t edits = rng.bounded(band + 1);
    for (std::uint64_t e = 0; e < edits; ++e) {
      const std::size_t pos = rng.bounded(b.size());
      b[pos] = core::code_base(static_cast<std::uint8_t>(rng.bounded(4)));
    }
    const std::uint64_t exact = align::edit_distance(a, b);
    const auto banded = align::banded_edit_distance(a, b, band);
    if (exact <= band) {
      ASSERT_TRUE(banded.has_value());
      EXPECT_EQ(*banded, exact);
    } else {
      EXPECT_FALSE(banded.has_value());
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Bands, BandSweep,
                         ::testing::Values(0u, 1u, 2u, 4u, 8u, 16u, 32u));

// ---------------------------------------------------------------------------
// Base partitioning covers every sequence exactly once for any rank count.
class PartitionSweep : public ::testing::TestWithParam<int> {};

TEST_P(PartitionSweep, PartitionIsContiguousAndComplete) {
  const int ranks = GetParam();
  io::SequenceSet set;
  util::Xoshiro256ss rng(static_cast<std::uint64_t>(5000 + ranks));
  const std::size_t count = rng.bounded(80);
  for (std::size_t i = 0; i < count; ++i) {
    set.add("s" + std::to_string(i), random_dna(rng, 20 + rng.bounded(300)));
  }
  const auto ranges = core::partition_by_bases(set, ranks);
  ASSERT_EQ(ranges.size(), static_cast<std::size_t>(ranks));
  io::SeqId cursor = 0;
  for (const auto& [begin, end] : ranges) {
    EXPECT_EQ(begin, cursor);
    EXPECT_LE(begin, end);
    cursor = end;
  }
  EXPECT_EQ(cursor, set.size());
}

INSTANTIATE_TEST_SUITE_P(Ranks, PartitionSweep,
                         ::testing::Values(1, 2, 3, 5, 8, 13, 32, 64));

// ---------------------------------------------------------------------------
// All three distribution strategies agree with the sequential mapper across
// (ranks, scheme) — the core correctness contract of the parallel layer.
using StrategyGrid = std::tuple<int, core::SketchScheme>;
class StrategySweep : public ::testing::TestWithParam<StrategyGrid> {
 protected:
  static void SetUpTestSuite() {
    util::Xoshiro256ss rng(8888);
    genome_ = new std::string(random_dna(rng, 50'000));
    subjects_ = new io::SequenceSet();
    for (int i = 0; i < 10; ++i) {
      subjects_->add("c" + std::to_string(i),
                     genome_->substr(static_cast<std::size_t>(i) * 5000,
                                     5000));
    }
    reads_ = new io::SequenceSet();
    for (int i = 0; i < 12; ++i) {
      const std::size_t pos = rng.bounded(42'000);
      reads_->add("r" + std::to_string(i), genome_->substr(pos, 6000));
    }
  }
  static void TearDownTestSuite() {
    delete reads_;
    delete subjects_;
    delete genome_;
    reads_ = nullptr;
    subjects_ = nullptr;
    genome_ = nullptr;
  }

  static std::string* genome_;
  static io::SequenceSet* subjects_;
  static io::SequenceSet* reads_;
};

std::string* StrategySweep::genome_ = nullptr;
io::SequenceSet* StrategySweep::subjects_ = nullptr;
io::SequenceSet* StrategySweep::reads_ = nullptr;

TEST_P(StrategySweep, AllStrategiesMatchSequential) {
  const auto [ranks, scheme] = GetParam();
  core::MapParams params;
  params.k = 16;
  params.w = 20;
  params.trials = 8;
  params.seed = 777;

  const core::JemMapper mapper(*subjects_, params, scheme);
  const auto sequential = oracle::map_reads(mapper, *reads_);

  const auto check = [&](const core::DistributedResult& result,
                         const char* label) {
    ASSERT_EQ(result.mappings.size(), sequential.size()) << label;
    for (std::size_t i = 0; i < sequential.size(); ++i) {
      EXPECT_EQ(result.mappings[i].result.subject,
                sequential[i].result.subject)
          << label << " index " << i;
      EXPECT_EQ(result.mappings[i].result.votes, sequential[i].result.votes)
          << label << " index " << i;
    }
  };
  check(core::run_distributed(*subjects_, *reads_, params, ranks, scheme),
        "replicated");
  check(core::run_distributed_partitioned(*subjects_, *reads_, params, ranks,
                                          scheme),
        "partitioned");
  check(core::run_staged(*subjects_, *reads_, params, ranks, {}, scheme),
        "staged");
}

INSTANTIATE_TEST_SUITE_P(
    Grid, StrategySweep,
    ::testing::Combine(
        ::testing::Values(1, 2, 5),
        ::testing::Values(core::SketchScheme::kJem,
                          core::SketchScheme::kClassicMinhash)));

// ---------------------------------------------------------------------------
// End-segment extraction invariants across (read length, l) combinations.
using SegmentGrid = std::tuple<std::size_t, std::uint32_t>;
class SegmentSweep : public ::testing::TestWithParam<SegmentGrid> {};

TEST_P(SegmentSweep, EndSegmentsViewTheReadCorrectly) {
  const auto [read_length, ell] = GetParam();
  util::Xoshiro256ss rng(6000 + read_length + ell);
  const std::string read = random_dna(rng, read_length);
  const auto segments = core::extract_end_segments(0, read, ell);
  if (read_length == 0 || ell == 0) {
    EXPECT_TRUE(segments.empty());
    return;
  }
  for (const core::EndSegment& segment : segments) {
    EXPECT_LE(segment.bases.size(), static_cast<std::size_t>(ell));
    EXPECT_EQ(segment.bases,
              std::string_view(read).substr(segment.offset,
                                            segment.bases.size()));
  }
  if (read_length <= ell) {
    ASSERT_EQ(segments.size(), 1u);
    EXPECT_EQ(segments[0].bases.size(), read_length);
  } else {
    ASSERT_EQ(segments.size(), 2u);
    EXPECT_EQ(segments[0].offset, 0u);
    EXPECT_EQ(segments[1].offset + ell, read_length);
  }
}

TEST_P(SegmentSweep, TiledSegmentsCoverTheWholeRead) {
  const auto [read_length, ell] = GetParam();
  util::Xoshiro256ss rng(7000 + read_length + ell);
  const std::string read = random_dna(rng, read_length);
  const auto segments = core::extract_tiled_segments(0, read, ell);
  if (read_length == 0 || ell == 0) {
    EXPECT_TRUE(segments.empty());
    return;
  }
  std::vector<bool> covered(read_length, false);
  for (const core::EndSegment& segment : segments) {
    EXPECT_EQ(segment.bases,
              std::string_view(read).substr(segment.offset,
                                            segment.bases.size()));
    for (std::size_t i = 0; i < segment.bases.size(); ++i) {
      covered[segment.offset + i] = true;
    }
  }
  for (std::size_t i = 0; i < read_length; ++i) {
    EXPECT_TRUE(covered[i]) << "position " << i << " uncovered";
  }
  EXPECT_EQ(segments.front().end, core::ReadEnd::kPrefix);
  if (segments.size() > 1) {
    EXPECT_EQ(segments.back().end, core::ReadEnd::kSuffix);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Grid, SegmentSweep,
    ::testing::Combine(::testing::Values<std::size_t>(0, 1, 500, 1000, 1001,
                                                      2000, 9999),
                       ::testing::Values<std::uint32_t>(0, 1, 500, 1000)));

}  // namespace
}  // namespace jem
