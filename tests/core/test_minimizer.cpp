#include "core/minimizer.hpp"

#include <gtest/gtest.h>

#include <string>

#include "core/dna.hpp"
#include "core/minimizer_lanes.hpp"
#include "io/artifact.hpp"
#include "oracle/kernels.hpp"
#include "sim/genome.hpp"
#include "sim/hifi_reads.hpp"
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

/// A fixed simulated HiFi read set: ~80 reads of ~10 kbp from a 200 kbp
/// repeat-rich genome, the input of the pinned-digest test below.
const io::SequenceSet& fixed_reads() {
  static const io::SequenceSet reads = [] {
    sim::GenomeParams genome;
    genome.length = 200'000;
    genome.repeat_fraction = 0.28;
    genome.seed = 15;
    sim::HiFiParams hifi;
    hifi.coverage = 4.0;
    hifi.seed = 16;
    return sim::simulate_hifi_reads(sim::simulate_genome(genome), hifi).reads;
  }();
  return reads;
}

/// XXH64 over every read's minimizer list, scanned by the kernel of
/// `lanes`: a little-endian u32 count, then each (u64 k-mer, u32 position).
std::uint64_t minimizer_digest(const io::SequenceSet& reads,
                               const MinimizerParams& params,
                               int lanes = minimizer_scan_lanes()) {
  std::string bytes;
  const auto put = [&](std::uint64_t value, int width) {
    for (int i = 0; i < width; ++i) {
      bytes.push_back(static_cast<char>((value >> (8 * i)) & 0xffu));
    }
  };
  MinimizerScratch scratch;
  std::vector<Minimizer> out;
  for (io::SeqId id = 0; id < reads.size(); ++id) {
    detail::minimizer_scan_with(lanes, reads.bases(id), params, scratch, out);
    put(out.size(), 4);
    for (const Minimizer& m : out) {
      put(m.kmer, 8);
      put(m.position, 4);
    }
  }
  return io::xxh64(bytes);
}

/// Concatenates `count` copies of `unit`.
std::string repeat(std::string_view unit, std::size_t count) {
  std::string seq;
  for (std::size_t i = 0; i < count; ++i) seq += unit;
  return seq;
}

constexpr MinimizerOrdering kOrderings[] = {MinimizerOrdering::kLexicographic,
                                            MinimizerOrdering::kRandomHash};

// Recorded from the monotone-deque scan the scalar loop replaced; any change
// to a k-mer, a position, a tie-break or a dedup decision moves them.
constexpr std::uint64_t kPaperLexDigest = 0x3a2386e07e18d866ULL;
constexpr std::uint64_t kPaperHashDigest = 0x27fc9ace94db3c8aULL;

TEST(MinimizerScan, PaperParameterDigestIsPinned) {
  const io::SequenceSet& reads = fixed_reads();
  ASSERT_GT(reads.total_bases(), 500'000u);
  EXPECT_EQ(minimizer_digest(reads, {16, 100}), kPaperLexDigest);
  EXPECT_EQ(
      minimizer_digest(reads, {16, 100, MinimizerOrdering::kRandomHash}),
      kPaperHashDigest);
}

TEST(MinimizerScan, MatchesNaiveAcrossKAndWCorners) {
  // k = 32 fills the 64-bit code; w spans the block sizes around the
  // paper's w = 100. The input mixes lowercase, IUPAC codes and N runs.
  util::Xoshiro256ss rng(60);
  std::string seq = random_dna(rng, 1500);
  for (std::size_t i = 0; i < seq.size(); ++i) {
    const std::uint64_t roll = rng.bounded(200);
    if (roll < 40) seq[i] = static_cast<char>(seq[i] - 'A' + 'a');
    if (roll == 40) seq[i] = "RYKMSWN"[rng.bounded(7)];
  }
  seq.replace(700, 12, std::string(12, 'N'));
  for (int k : {1, 16, 31, 32}) {
    for (int w : {1, 2, 99, 100, 101, 250}) {
      for (MinimizerOrdering ordering : kOrderings) {
        const MinimizerParams params{k, w, ordering};
        ASSERT_EQ(minimizer_scan(seq, params),
                  oracle::minimizer_scan_naive(seq, params))
            << "k=" << k << " w=" << w;
      }
    }
  }
}

TEST(MinimizerScan, MatchesNaiveAtBlockBoundaryRunLengths) {
  // Runs of k-1 .. k+w bases, and runs of m*w k-mers +-1, each alone and
  // between N separators, so a run ends just before, at and just after a
  // window block fills.
  util::Xoshiro256ss rng(61);
  constexpr int k = 16;
  for (int w : {1, 2, 3, 7, 100}) {
    const auto kk = static_cast<std::size_t>(k);
    const auto ww = static_cast<std::size_t>(w);
    std::vector<std::size_t> lengths{kk - 1, kk, kk + ww - 2, kk + ww - 1,
                                     kk + ww};
    for (std::size_t blocks = 1; blocks <= 3; ++blocks) {
      for (std::size_t n : {blocks * ww - 1, blocks * ww, blocks * ww + 1}) {
        if (n > 0) lengths.push_back(n + kk - 1);
      }
    }
    std::string joined;
    for (const std::size_t length : lengths) {
      const std::string run = random_dna(rng, length);
      joined += run + "N";
      for (MinimizerOrdering ordering : kOrderings) {
        const MinimizerParams params{k, w, ordering};
        ASSERT_EQ(minimizer_scan(run, params),
                  oracle::minimizer_scan_naive(run, params))
            << "w=" << w << " run=" << length;
      }
    }
    for (MinimizerOrdering ordering : kOrderings) {
      const MinimizerParams params{k, w, ordering};
      ASSERT_EQ(minimizer_scan(joined, params),
                oracle::minimizer_scan_naive(joined, params))
          << "w=" << w;
    }
  }
}

TEST(MinimizerScan, MatchesNaiveOnTandemRepeats) {
  // Every window of these inputs holds tied minima: the leftmost must win.
  for (const std::string& seq :
       {repeat("A", 1000), repeat("AC", 500), repeat("AAC", 334),
        repeat("A", 300) + repeat("AC", 200) + repeat("AAC", 100)}) {
    for (int w : {1, 2, 99, 100, 101}) {
      for (MinimizerOrdering ordering : kOrderings) {
        const MinimizerParams params{16, w, ordering};
        ASSERT_EQ(minimizer_scan(seq, params),
                  oracle::minimizer_scan_naive(seq, params))
            << "w=" << w << " len=" << seq.size();
      }
    }
  }
}

TEST(MinimizerScan, ScratchReusedAcrossShrinkingAndGrowingWindows) {
  util::Xoshiro256ss rng(62);
  MinimizerScratch scratch;
  std::vector<Minimizer> out;
  for (int w : {250, 1, 100, 250, 2}) {
    for (MinimizerOrdering ordering : kOrderings) {
      const std::string seq = random_dna(rng, 600 + rng.bounded(600));
      const MinimizerParams params{16, w, ordering};
      minimizer_scan(seq, params, scratch, out);
      ASSERT_EQ(out, oracle::minimizer_scan_naive(seq, params)) << "w=" << w;
    }
  }
}

TEST(MinimizerScan, WindowBeyondTheSequenceIsOneTruncatedWindow) {
  // The window blocks are sized by min(w, |s|), not by w.
  util::Xoshiro256ss rng(63);
  const std::string seq = random_dna(rng, 500) + "N" + random_dna(rng, 300);
  for (MinimizerOrdering ordering : kOrderings) {
    const MinimizerParams params{16, 1'000'000'000, ordering};
    const std::vector<Minimizer> minimizers = minimizer_scan(seq, params);
    EXPECT_EQ(minimizers.size(), 2u);
    EXPECT_EQ(minimizers, oracle::minimizer_scan_naive(seq, params));
  }
}

TEST(MinimizerScan, RejectsBadParams) {
  EXPECT_THROW((void)minimizer_scan("ACGT", {0, 5}), std::invalid_argument);
  EXPECT_THROW((void)minimizer_scan("ACGT", {33, 5}), std::invalid_argument);
  EXPECT_THROW((void)minimizer_scan("ACGT", {4, 0}), std::invalid_argument);
}

TEST(MinimizerScan, EmptyAndTooShortSequences) {
  EXPECT_TRUE(minimizer_scan("", {4, 3}).empty());
  EXPECT_TRUE(minimizer_scan("ACG", {4, 3}).empty());
}

TEST(MinimizerScan, SingleKmerSequence) {
  const auto minimizers = minimizer_scan("ACGT", {4, 3});
  ASSERT_EQ(minimizers.size(), 1u);
  EXPECT_EQ(minimizers[0].position, 0u);
  // Canonical of ACGT is itself (palindrome).
  EXPECT_EQ(minimizers[0].kmer, KmerCodec(4).encode("ACGT").value());
}

TEST(MinimizerScan, PositionsAreStrictlyIncreasing) {
  util::Xoshiro256ss rng(42);
  const std::string seq = random_dna(rng, 2000);
  const auto minimizers = minimizer_scan(seq, {8, 10});
  ASSERT_GT(minimizers.size(), 1u);
  for (std::size_t i = 1; i < minimizers.size(); ++i) {
    EXPECT_LT(minimizers[i - 1].position, minimizers[i].position);
  }
}

TEST(MinimizerScan, KmersAreCanonical) {
  util::Xoshiro256ss rng(43);
  const std::string seq = random_dna(rng, 500);
  const KmerCodec codec(8);
  for (const Minimizer& m : minimizer_scan(seq, {8, 5})) {
    EXPECT_EQ(m.kmer, codec.canonical(m.kmer));
    // The k-mer at the recorded position must canonicalize to it.
    const KmerCode at_pos = codec.encode(seq.substr(m.position, 8)).value();
    EXPECT_EQ(codec.canonical(at_pos), m.kmer);
  }
}

TEST(MinimizerScan, MatchesNaiveReference) {
  util::Xoshiro256ss rng(44);
  for (int trial = 0; trial < 20; ++trial) {
    const std::size_t length = 50 + rng.bounded(500);
    const std::string seq = random_dna(rng, length);
    const int k = 3 + static_cast<int>(rng.bounded(10));
    const int w = 1 + static_cast<int>(rng.bounded(20));
    const MinimizerParams params{k, w};
    EXPECT_EQ(minimizer_scan(seq, params),
              oracle::minimizer_scan_naive(seq, params))
        << "len=" << length << " k=" << k << " w=" << w;
  }
}

TEST(MinimizerScan, MatchesNaiveOnRepetitiveSequence) {
  // Runs of identical bases and short tandem repeats stress tie-breaking.
  const std::string seq =
      "AAAAAAAAAATTTTTTTTTTACACACACACACGGGGGGGGGGCACACACACA"
      "AAAAAAAAAATTTTTTTTTT";
  for (int w : {1, 2, 5, 8}) {
    const MinimizerParams params{4, w};
    EXPECT_EQ(minimizer_scan(seq, params),
              oracle::minimizer_scan_naive(seq, params))
        << "w=" << w;
  }
}

TEST(MinimizerScan, ScratchOverloadMatchesNaiveWithReusedBuffers) {
  // The allocation-free scan must stay bit-identical to the naive reference
  // while one scratch + output vector is reused across wildly different
  // inputs — random sequences, k/w corners, and N-rich content.
  util::Xoshiro256ss rng(46);
  MinimizerScratch scratch;
  std::vector<Minimizer> out;
  for (int trial = 0; trial < 40; ++trial) {
    std::string seq = random_dna(rng, 20 + rng.bounded(800));
    // Sprinkle ambiguous bases in half the trials to exercise run breaks.
    if (trial % 2 == 0) {
      for (std::size_t i = 0; i < seq.size(); ++i) {
        if (rng.bounded(10) == 0) seq[i] = 'N';
      }
    }
    const int k = 1 + static_cast<int>(rng.bounded(16));
    const int w = 1 + static_cast<int>(rng.bounded(30));
    const auto ordering = rng.bounded(2) == 0
                              ? MinimizerOrdering::kLexicographic
                              : MinimizerOrdering::kRandomHash;
    const MinimizerParams params{k, w, ordering};
    minimizer_scan(seq, params, scratch, out);
    ASSERT_EQ(out, oracle::minimizer_scan_naive(seq, params))
        << "k=" << k << " w=" << w << " len=" << seq.size();
    ASSERT_EQ(out, minimizer_scan(seq, params));
  }
}

TEST(MinimizerScan, ScratchOverloadClearsPreviousOutput) {
  MinimizerScratch scratch;
  std::vector<Minimizer> out;
  minimizer_scan("ACGTACGTACGTACGT", {4, 3}, scratch, out);
  ASSERT_FALSE(out.empty());
  minimizer_scan("NNNNNNNN", {4, 3}, scratch, out);
  EXPECT_TRUE(out.empty());  // stale results must not survive
}

TEST(MinimizerScan, StrandSymmetric) {
  // The canonical minimizer *set* (k-mers, not positions) must be identical
  // for a sequence and its reverse complement.
  util::Xoshiro256ss rng(45);
  const std::string seq = random_dna(rng, 800);
  const std::string rc = reverse_complement(seq);
  const MinimizerParams params{8, 12};

  auto kmers_of = [&](const std::string& s) {
    std::vector<KmerCode> kmers;
    for (const Minimizer& m : minimizer_scan(s, params)) {
      kmers.push_back(m.kmer);
    }
    std::sort(kmers.begin(), kmers.end());
    kmers.erase(std::unique(kmers.begin(), kmers.end()), kmers.end());
    return kmers;
  };
  EXPECT_EQ(kmers_of(seq), kmers_of(rc));
}

TEST(MinimizerScan, AmbiguousBasesSplitRuns) {
  // No minimizer's k-mer window may span the N.
  const std::string seq = "ACGTACGTACGT" + std::string("N") + "TGCATGCATGCA";
  const auto minimizers = minimizer_scan(seq, {4, 2});
  for (const Minimizer& m : minimizers) {
    const bool before = m.position + 4 <= 12;
    const bool after = m.position >= 13;
    EXPECT_TRUE(before || after) << "position " << m.position;
  }
  EXPECT_FALSE(minimizers.empty());
}

TEST(MinimizerScan, AllNSequenceYieldsNothing) {
  EXPECT_TRUE(minimizer_scan("NNNNNNNNNN", {4, 2}).empty());
}

TEST(MinimizerScan, DensityIsNearTheoretical) {
  util::Xoshiro256ss rng(46);
  const std::string seq = random_dna(rng, 200'000);
  const int w = 19;
  const auto minimizers = minimizer_scan(seq, {12, w});
  const double density = static_cast<double>(minimizers.size()) /
                         static_cast<double>(seq.size() - 12 + 1);
  // Expected distinct-minimizer density is 2/(w+1) = 0.1.
  EXPECT_NEAR(density, expected_minimizer_density(w), 0.015);
}

TEST(MinimizerScan, WindowOneKeepsEveryKmer) {
  util::Xoshiro256ss rng(47);
  const std::string seq = random_dna(rng, 300);
  const auto minimizers = minimizer_scan(seq, {6, 1});
  // w=1: every k-mer position is its own window; consecutive identical
  // (kmer, pos) dedup never triggers since positions advance.
  EXPECT_EQ(minimizers.size(), seq.size() - 6 + 1);
}

TEST(MinimizerScan, LargerWindowsYieldSparserLists) {
  util::Xoshiro256ss rng(48);
  const std::string seq = random_dna(rng, 20'000);
  std::size_t prev = minimizer_scan(seq, {10, 1}).size();
  for (int w : {5, 20, 80}) {
    const std::size_t count = minimizer_scan(seq, {10, w}).size();
    EXPECT_LT(count, prev);
    prev = count;
  }
}

TEST(MinimizerScan, RandomHashOrderingMatchesNaive) {
  util::Xoshiro256ss rng(49);
  for (int trial = 0; trial < 10; ++trial) {
    const std::string seq = random_dna(rng, 100 + rng.bounded(400));
    const MinimizerParams params{5 + static_cast<int>(rng.bounded(8)),
                                 1 + static_cast<int>(rng.bounded(15)),
                                 MinimizerOrdering::kRandomHash};
    EXPECT_EQ(minimizer_scan(seq, params),
              oracle::minimizer_scan_naive(seq, params));
  }
}

TEST(MinimizerScan, RandomHashOrderingIsStrandSymmetric) {
  util::Xoshiro256ss rng(50);
  const std::string seq = random_dna(rng, 600);
  const MinimizerParams params{8, 12, MinimizerOrdering::kRandomHash};
  auto kmers_of = [&](const std::string& s) {
    std::vector<KmerCode> kmers;
    for (const Minimizer& m : minimizer_scan(s, params)) {
      kmers.push_back(m.kmer);
    }
    std::sort(kmers.begin(), kmers.end());
    kmers.erase(std::unique(kmers.begin(), kmers.end()), kmers.end());
    return kmers;
  };
  EXPECT_EQ(kmers_of(seq), kmers_of(reverse_complement(seq)));
}

TEST(MinimizerScan, OrderingsSelectDifferentMinimizers) {
  util::Xoshiro256ss rng(51);
  const std::string seq = random_dna(rng, 5000);
  const auto lex =
      minimizer_scan(seq, {12, 20, MinimizerOrdering::kLexicographic});
  const auto hashed =
      minimizer_scan(seq, {12, 20, MinimizerOrdering::kRandomHash});
  EXPECT_NE(lex, hashed);
}

TEST(MinimizerScan, RandomHashAvoidsPolyABias) {
  // On an AT-rich sequence, lexicographic ordering keeps picking poly-A
  // k-mers; the density of *distinct positions* still matches, but the
  // selected k-mer set is heavily skewed: the single all-A k-mer dominates.
  std::string at_rich;
  util::Xoshiro256ss rng(52);
  for (int i = 0; i < 50'000; ++i) {
    const double u = rng.uniform();
    at_rich.push_back(u < 0.45 ? 'A' : (u < 0.9 ? 'T' : (u < 0.95 ? 'C'
                                                                  : 'G')));
  }
  const auto count_all_a = [&](MinimizerOrdering ordering) {
    const KmerCodec codec(8);
    std::size_t all_a = 0;
    std::size_t total = 0;
    for (const Minimizer& m :
         minimizer_scan(at_rich, {8, 15, ordering})) {
      ++total;
      if (m.kmer == 0) ++all_a;  // canonical AAAAAAAA encodes to 0
    }
    return std::pair{all_a, total};
  };
  const auto [lex_a, lex_total] =
      count_all_a(MinimizerOrdering::kLexicographic);
  const auto [hash_a, hash_total] =
      count_all_a(MinimizerOrdering::kRandomHash);
  const double lex_frac =
      static_cast<double>(lex_a) / static_cast<double>(lex_total);
  const double hash_frac =
      static_cast<double>(hash_a) / static_cast<double>(hash_total);
  EXPECT_GT(lex_frac, 3 * hash_frac);
}

TEST(MinimizerScan, ShortRunBetweenNsUsesTruncatedWindow) {
  // Run of 6 bases with k=4 -> 3 k-mers, less than w=10: one truncated
  // window over the whole run.
  const std::string seq = "NNACGTACNN";
  const auto minimizers = minimizer_scan(seq, {4, 10});
  EXPECT_EQ(minimizers.size(), 1u);
}

// ---- Every scan kernel against the scalar loop and the naive oracle ------
// Each kernel this host supports runs through the internal entry point;
// the others skip. The scalar loop (1 lane) is the oracle of the lane
// kernels and runs everywhere.

class MinimizerScanLanes : public ::testing::TestWithParam<int> {
 protected:
  void SetUp() override {
    if (!detail::minimizer_lanes_supported(GetParam())) {
      GTEST_SKIP() << GetParam() << "-lane kernel not supported here";
    }
  }

  /// Scans `seq` on the kernel under test and on the scalar loop, and
  /// returns the kernel's list after checking the two agree.
  std::vector<Minimizer> scan(std::string_view seq, const MinimizerParams& p) {
    std::vector<Minimizer> out;
    detail::minimizer_scan_with(GetParam(), seq, p, scratch_, out);
    std::vector<Minimizer> scalar;
    detail::minimizer_scan_with(1, seq, p, scalar_scratch_, scalar);
    EXPECT_EQ(out, scalar) << "k=" << p.k << " w=" << p.w
                           << " len=" << seq.size();
    return out;
  }

  /// The kernel under test against the naive oracle (and the scalar loop).
  void expect_matches_naive(std::string_view seq, const MinimizerParams& p) {
    EXPECT_EQ(scan(seq, p), oracle::minimizer_scan_naive(seq, p))
        << "k=" << p.k << " w=" << p.w << " len=" << seq.size();
  }

  MinimizerScratch scratch_;
  MinimizerScratch scalar_scratch_;
};

TEST_P(MinimizerScanLanes, PaperParameterDigestIsPinned) {
  const io::SequenceSet& reads = fixed_reads();
  EXPECT_EQ(minimizer_digest(reads, {16, 100}, GetParam()), kPaperLexDigest);
  EXPECT_EQ(minimizer_digest(reads, {16, 100, MinimizerOrdering::kRandomHash},
                             GetParam()),
            kPaperHashDigest);
}

TEST_P(MinimizerScanLanes, AmbiguousBaseAtEveryOffset) {
  // One N at every offset of a run that fills the lanes: it lands before,
  // on and after every lane seam of both lane counts.
  util::Xoshiro256ss rng(70);
  const std::string clean = random_dna(rng, 240);
  for (const auto& [k, w] : {std::pair{5, 7}, std::pair{1, 3}}) {
    for (std::size_t at = 0; at < clean.size(); ++at) {
      std::string seq = clean;
      seq[at] = 'N';
      expect_matches_naive(seq, {k, w});
    }
  }
}

TEST_P(MinimizerScanLanes, AmbiguousBaseAtPaperParameterLaneSeams) {
  // k = 16, w = 100 on a 1 kbp tile: an N on each side of and on every
  // lane's first base and last base, for 4 and 8 lanes.
  constexpr int k = 16;
  constexpr int w = 100;
  util::Xoshiro256ss rng(71);
  const std::string clean = random_dna(rng, 1000);
  const std::size_t windows = clean.size() - k - w + 2;
  for (const std::size_t lanes : {4u, 8u}) {
    const std::size_t per_lane = (windows + lanes - 1) / lanes;
    for (std::size_t j = 0; j < lanes; ++j) {
      const std::size_t first = std::min(j * per_lane, windows - per_lane);
      const std::size_t last = first + per_lane + w + k - 3;
      for (const std::size_t seam : {first, last}) {
        for (std::size_t at = seam == 0 ? 0 : seam - 1;
             at <= std::min(seam + 1, clean.size() - 1); ++at) {
          std::string seq = clean;
          seq[at] = 'N';
          expect_matches_naive(seq, {k, w});
        }
      }
    }
  }
}

TEST_P(MinimizerScanLanes, MatchesNaiveAtLaneBoundaryRunLengths) {
  // Runs of k+w-2 bases (one truncated window), k+w-1 (one window),
  // lanes*w-1 .. lanes*w+1, and one base either side of the shortest run
  // the lanes take, alone and joined by N separators.
  util::Xoshiro256ss rng(72);
  for (int k = 1; k <= 16; ++k) {
    for (int w : {1, 2, 3, 5, 8, 13, 31, 64, 99, 100, 101, 150, 255, 300}) {
      const auto kk = static_cast<std::size_t>(k);
      const auto ww = static_cast<std::size_t>(w);
      std::vector<std::size_t> lengths{kk + ww - 1};
      if (kk + ww >= 3) lengths.push_back(kk + ww - 2);
      for (const std::size_t lanes : {4u, 8u}) {
        const std::size_t shortest =
            kk + ww - 2 + lanes * detail::kMinLaneWindows;
        for (const std::size_t n :
             {lanes * ww - 1, lanes * ww, lanes * ww + 1, shortest - 1,
              shortest, shortest + 1}) {
          if (n > 0) lengths.push_back(n);
        }
      }
      std::string joined;
      for (const std::size_t length : lengths) {
        const std::string run = random_dna(rng, length);
        joined += run + "N";
        const MinimizerParams params{k, w};
        if (w <= 101) {
          expect_matches_naive(run, params);
        } else {
          (void)scan(run, params);
        }
      }
      (void)scan(joined, {k, w});
    }
  }
}

TEST_P(MinimizerScanLanes, MatchesNaiveAcrossKAndW) {
  // Every k the lane kernels take, on inputs that mix lowercase, IUPAC
  // codes and N runs; k > 16 and kRandomHash take the scalar loop.
  util::Xoshiro256ss rng(73);
  std::string seq = random_dna(rng, 3000);
  for (std::size_t i = 0; i < seq.size(); ++i) {
    const std::uint64_t roll = rng.bounded(400);
    if (roll < 80) seq[i] = static_cast<char>(seq[i] - 'A' + 'a');
    if (roll == 80) seq[i] = "RYKMSWN"[rng.bounded(7)];
  }
  seq.replace(1700, 12, std::string(12, 'N'));
  for (int k = 1; k <= 17; ++k) {
    for (int w : {1, 4, 16, 100, 300}) {
      for (MinimizerOrdering ordering : kOrderings) {
        expect_matches_naive(seq, {k, w, ordering});
      }
    }
  }
  expect_matches_naive(seq, {32, 50});
}

TEST_P(MinimizerScanLanes, MatchesNaiveOnTandemRepeats) {
  // Every window holds tied minima, across lane seams too: the leftmost
  // wins and a minimum shared by two lanes is emitted once.
  for (const std::string& seq :
       {repeat("A", 2000), repeat("AC", 1000), repeat("AAC", 667),
        repeat("ACGT", 500),
        repeat("A", 600) + repeat("AC", 400) + repeat("AAC", 200)}) {
    for (int k : {1, 8, 15, 16}) {
      for (int w : {1, 2, 99, 100, 101}) {
        expect_matches_naive(seq, {k, w});
      }
    }
  }
}

TEST_P(MinimizerScanLanes, LongSubjectMatchesScalar) {
  // A contig-sized run: each lane spans thousands of blocks. The scratch
  // is reused from the shorter scans before it.
  util::Xoshiro256ss rng(74);
  for (const int w : {100, 20}) {
    (void)scan(random_dna(rng, 1500), {16, w});
    (void)scan(random_dna(rng, 200'000), {16, w});
  }
}

INSTANTIATE_TEST_SUITE_P(Kernels, MinimizerScanLanes,
                         ::testing::Values(1, 4, 8),
                         [](const ::testing::TestParamInfo<int>& info) {
                           return std::to_string(info.param) + "Lanes";
                         });

}  // namespace
}  // namespace jem::core
