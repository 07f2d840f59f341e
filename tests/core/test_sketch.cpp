#include "core/sketch.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <span>
#include <string>

#include "core/dna.hpp"
#include "core/sketch_lanes.hpp"
#include "oracle/kernels.hpp"
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

/// A flat trial list as the set it stands for: a sorted copy, after
/// checking that it holds no k-mer twice. The flat kernels promise the set
/// of the allocating overloads and oracles, not their order.
std::vector<KmerCode> as_set(std::span<const KmerCode> kmers) {
  std::vector<KmerCode> sorted(kmers.begin(), kmers.end());
  std::sort(sorted.begin(), sorted.end());
  EXPECT_EQ(std::adjacent_find(sorted.begin(), sorted.end()), sorted.end())
      << "a k-mer repeats in a trial list";
  return sorted;
}

TEST(SketchByJem, EmptyMinimizerListYieldsEmptySketch) {
  const HashFamily hashes(5, 1);
  const Sketch sketch = sketch_by_jem(std::span<const Minimizer>{}, 1000,
                                      hashes);
  EXPECT_EQ(sketch.trials(), 5);
  EXPECT_EQ(sketch.total_entries(), 0u);
}

TEST(SketchByJem, SingleMinimizerSketchesItself) {
  const HashFamily hashes(4, 2);
  const std::vector<Minimizer> minimizers{{0xabcdu, 10}};
  const Sketch sketch = sketch_by_jem(minimizers, 500, hashes);
  for (int t = 0; t < 4; ++t) {
    ASSERT_EQ(sketch.per_trial[static_cast<std::size_t>(t)].size(), 1u);
    EXPECT_EQ(sketch.per_trial[static_cast<std::size_t>(t)][0], 0xabcdu);
  }
}

TEST(SketchByJem, FastMatchesNaiveOnRandomInputs) {
  util::Xoshiro256ss rng(7);
  for (int trial = 0; trial < 15; ++trial) {
    // Random minimizer lists with increasing positions.
    std::vector<Minimizer> minimizers;
    std::uint32_t pos = 0;
    const std::size_t count = 5 + rng.bounded(80);
    for (std::size_t i = 0; i < count; ++i) {
      pos += 1 + static_cast<std::uint32_t>(rng.bounded(200));
      minimizers.push_back({rng() & 0xffffffffu, pos});
    }
    const HashFamily hashes(1 + static_cast<int>(rng.bounded(8)),
                            rng());
    const auto interval = static_cast<std::uint32_t>(50 + rng.bounded(2000));
    const Sketch fast = sketch_by_jem(minimizers, interval, hashes);
    const Sketch naive =
        oracle::sketch_by_jem_naive(minimizers, interval, hashes);
    ASSERT_EQ(fast.trials(), naive.trials());
    for (int t = 0; t < fast.trials(); ++t) {
      EXPECT_EQ(fast.per_trial[static_cast<std::size_t>(t)],
                naive.per_trial[static_cast<std::size_t>(t)])
          << "trial " << t;
    }
  }
}

TEST(SketchByJem, FlatKernelMatchesNaiveWithReusedScratch) {
  // The block kernel writing into a reused FlatSketch must stay
  // bit-identical to the literal Algorithm 1 loop across random minimizer
  // lists and interval-length corners, with one scratch shared by all.
  // Every third round draws k-mers from a 2-4 value alphabet so equal
  // k-mers recur inside intervals (the (hash, kmer) tie-break and the
  // dedup), and every fourth uses ℓ ∈ {0, 1}: each interval is one or two
  // minimizers and nearly every minimizer is its own block.
  util::Xoshiro256ss rng(77);
  SketchScratch scratch;
  FlatSketch flat;
  for (int round = 0; round < 60; ++round) {
    const std::uint64_t alphabet = round % 3 == 0 ? 2 + rng.bounded(3) : 0;
    std::vector<Minimizer> minimizers;
    std::uint32_t pos = 0;
    const std::size_t count = rng.bounded(120);  // sometimes empty
    for (std::size_t i = 0; i < count; ++i) {
      pos += 1 + static_cast<std::uint32_t>(rng.bounded(150));
      const KmerCode kmer =
          alphabet != 0 ? rng.bounded(alphabet) : rng() & 0xffffffffu;
      minimizers.push_back({kmer, pos});
    }
    const HashFamily hashes(1 + static_cast<int>(rng.bounded(10)), rng());
    const auto interval = static_cast<std::uint32_t>(
        round % 4 == 1 ? rng.bounded(2) : 1 + rng.bounded(3000));
    sketch_by_jem(minimizers, interval, hashes, scratch, flat);
    const Sketch naive =
        oracle::sketch_by_jem_naive(minimizers, interval, hashes);
    ASSERT_EQ(flat.trials(), naive.trials());
    for (int t = 0; t < naive.trials(); ++t) {
      const auto& expected = naive.per_trial[static_cast<std::size_t>(t)];
      ASSERT_EQ(as_set(flat.trial(t)), expected)
          << "round " << round << " trial " << t;
    }
  }
}

TEST(SketchByJem, FlatKernelMatchesAllocatingOverloadOnNRichSequences) {
  util::Xoshiro256ss rng(78);
  SketchScratch scratch;
  FlatSketch flat;
  const HashFamily hashes(7, 21);
  for (int round = 0; round < 10; ++round) {
    std::string seq = random_dna(rng, 2000);
    for (std::size_t i = 0; i < seq.size(); ++i) {
      if (rng.bounded(20) == 0) seq[i] = 'N';
    }
    const SketchParams params{{9, 7}, 400};
    const Sketch alloc = sketch_by_jem(seq, params, hashes);

    MinimizerScratch scan;
    std::vector<Minimizer> minimizers;
    minimizer_scan(seq, params.minimizer, scan, minimizers);
    sketch_by_jem(minimizers, params.interval_length, hashes, scratch, flat);
    for (int t = 0; t < 7; ++t) {
      ASSERT_EQ(as_set(flat.trial(t)),
                alloc.per_trial[static_cast<std::size_t>(t)]);
    }
  }
}

TEST(ClassicMinhash, FlatOverloadMatchesAllocating) {
  util::Xoshiro256ss rng(79);
  SketchScratch scratch;
  FlatSketch flat;
  const HashFamily hashes(9, 31);
  for (const std::string& seq :
       {random_dna(rng, 500), std::string("ACGT"), std::string("NNNN"),
        std::string()}) {
    const Sketch alloc = classic_minhash(seq, 8, hashes);
    classic_minhash(seq, 8, hashes, scratch, flat);
    ASSERT_EQ(flat.trials(), alloc.trials());
    for (int t = 0; t < alloc.trials(); ++t) {
      const auto kmers = flat.trial(t);
      ASSERT_EQ(std::vector<KmerCode>(kmers.begin(), kmers.end()),
                alloc.per_trial[static_cast<std::size_t>(t)]);
    }
  }
}

TEST(SketchByJem, FromSequenceMatchesFromMinimizers) {
  util::Xoshiro256ss rng(8);
  const std::string seq = random_dna(rng, 3000);
  const SketchParams params{{11, 9}, 700};
  const HashFamily hashes(6, 3);
  const auto minimizers = minimizer_scan(seq, params.minimizer);
  const Sketch from_seq = sketch_by_jem(seq, params, hashes);
  const Sketch from_min =
      sketch_by_jem(minimizers, params.interval_length, hashes);
  for (int t = 0; t < 6; ++t) {
    EXPECT_EQ(from_seq.per_trial[static_cast<std::size_t>(t)],
              from_min.per_trial[static_cast<std::size_t>(t)]);
  }
}

TEST(SketchByJem, PerTrialListsAreSortedUnique) {
  util::Xoshiro256ss rng(9);
  const std::string seq = random_dna(rng, 5000);
  const HashFamily hashes(8, 4);
  const Sketch sketch = sketch_by_jem(seq, {{13, 10}, 800}, hashes);
  for (const auto& kmers : sketch.per_trial) {
    EXPECT_TRUE(std::is_sorted(kmers.begin(), kmers.end()));
    EXPECT_EQ(std::adjacent_find(kmers.begin(), kmers.end()), kmers.end());
  }
}

TEST(SketchByJem, EverySketchKmerIsAMinimizer) {
  util::Xoshiro256ss rng(10);
  const std::string seq = random_dna(rng, 4000);
  const MinimizerParams mp{12, 8};
  const auto minimizers = minimizer_scan(seq, mp);
  std::vector<KmerCode> minimizer_kmers;
  for (const Minimizer& m : minimizers) minimizer_kmers.push_back(m.kmer);
  std::sort(minimizer_kmers.begin(), minimizer_kmers.end());

  const HashFamily hashes(5, 6);
  const Sketch sketch = sketch_by_jem(minimizers, 600, hashes);
  for (const auto& kmers : sketch.per_trial) {
    for (KmerCode kmer : kmers) {
      EXPECT_TRUE(std::binary_search(minimizer_kmers.begin(),
                                     minimizer_kmers.end(), kmer));
    }
  }
}

TEST(SketchByJem, IdenticalSequencesShareAllSketches) {
  util::Xoshiro256ss rng(11);
  const std::string seq = random_dna(rng, 2000);
  const HashFamily hashes(10, 12);
  const SketchParams params{{16, 10}, 1000};
  const Sketch a = sketch_by_jem(seq, params, hashes);
  const Sketch b = sketch_by_jem(seq, params, hashes);
  for (int t = 0; t < 10; ++t) {
    EXPECT_EQ(a.per_trial[static_cast<std::size_t>(t)],
              b.per_trial[static_cast<std::size_t>(t)]);
  }
}

TEST(SketchByJem, ReverseComplementSharesSketches) {
  // Canonical k-mers make the minimizer *sets* strand-invariant, but the
  // interval windows mirror under reverse complement, so per-trial sketch
  // sets only partially coincide. A substantial overlap must remain — that
  // is what lets a reverse-strand segment hit the subject's table.
  util::Xoshiro256ss rng(12);
  const std::string seq = random_dna(rng, 2000);
  const std::string rc = reverse_complement(seq);
  const HashFamily hashes(10, 13);
  const SketchParams params{{15, 10}, 1000};
  const Sketch fwd = sketch_by_jem(seq, params, hashes);
  const Sketch rev = sketch_by_jem(rc, params, hashes);

  std::size_t shared = 0;
  std::size_t total = 0;
  for (int t = 0; t < 10; ++t) {
    const auto& a = fwd.per_trial[static_cast<std::size_t>(t)];
    const auto& b = rev.per_trial[static_cast<std::size_t>(t)];
    std::vector<KmerCode> intersection;
    std::set_intersection(a.begin(), a.end(), b.begin(), b.end(),
                          std::back_inserter(intersection));
    shared += intersection.size();
    total += a.size();
  }
  EXPECT_GT(static_cast<double>(shared), 0.25 * static_cast<double>(total));
}

TEST(SketchByJem, SubstringSharesSketchesWithSource) {
  // The core mapping property: a 1000 bp window of a longer sequence must
  // produce sketches that hit the source's interval sketches in most trials.
  util::Xoshiro256ss rng(13);
  const std::string subject = random_dna(rng, 10000);
  const std::string query = subject.substr(4000, 1000);
  const HashFamily hashes(30, 14);
  const SketchParams params{{16, 10}, 1000};
  const Sketch subject_sketch = sketch_by_jem(subject, params, hashes);
  const Sketch query_sketch = sketch_by_jem(query, params, hashes);

  int hit_trials = 0;
  for (int t = 0; t < 30; ++t) {
    const auto& s = subject_sketch.per_trial[static_cast<std::size_t>(t)];
    const auto& q = query_sketch.per_trial[static_cast<std::size_t>(t)];
    std::vector<KmerCode> intersection;
    std::set_intersection(s.begin(), s.end(), q.begin(), q.end(),
                          std::back_inserter(intersection));
    if (!intersection.empty()) ++hit_trials;
  }
  EXPECT_GE(hit_trials, 25);
}

TEST(ClassicMinhash, OneKmerPerTrial) {
  util::Xoshiro256ss rng(15);
  const std::string seq = random_dna(rng, 500);
  const HashFamily hashes(7, 16);
  const Sketch sketch = classic_minhash(seq, 11, hashes);
  ASSERT_EQ(sketch.trials(), 7);
  for (const auto& kmers : sketch.per_trial) {
    EXPECT_EQ(kmers.size(), 1u);
  }
}

TEST(ClassicMinhash, EmptyForTooShortSequence) {
  const HashFamily hashes(3, 17);
  const Sketch sketch = classic_minhash("ACG", 11, hashes);
  EXPECT_EQ(sketch.total_entries(), 0u);
}

TEST(ClassicMinhash, MinhashIsGlobalArgmin) {
  util::Xoshiro256ss rng(18);
  const std::string seq = random_dna(rng, 300);
  const int k = 8;
  const HashFamily hashes(5, 19);
  const KmerCodec codec(k);

  // Collect all canonical k-mers by brute force.
  std::vector<KmerCode> all;
  for (std::size_t i = 0; i + k <= seq.size(); ++i) {
    all.push_back(codec.canonical(codec.encode(seq.substr(i, k)).value()));
  }

  const Sketch sketch = classic_minhash(seq, k, hashes);
  for (int t = 0; t < 5; ++t) {
    std::uint64_t best_hash = ~0ULL;
    KmerCode best_kmer = 0;
    for (KmerCode kmer : all) {
      const std::uint64_t h = hashes.hash(t, kmer);
      if (h < best_hash || (h == best_hash && kmer < best_kmer)) {
        best_hash = h;
        best_kmer = kmer;
      }
    }
    EXPECT_EQ(sketch.per_trial[static_cast<std::size_t>(t)][0], best_kmer);
  }
}

TEST(ClassicMinhash, StrandInvariant) {
  util::Xoshiro256ss rng(20);
  const std::string seq = random_dna(rng, 400);
  const HashFamily hashes(10, 21);
  const Sketch fwd = classic_minhash(seq, 9, hashes);
  const Sketch rev = classic_minhash(reverse_complement(seq), 9, hashes);
  for (int t = 0; t < 10; ++t) {
    EXPECT_EQ(fwd.per_trial[static_cast<std::size_t>(t)],
              rev.per_trial[static_cast<std::size_t>(t)]);
  }
}

TEST(ClassicMinhash, SkipsAmbiguousKmers) {
  // Sequence whose only valid k-mers are in the second half.
  const std::string seq = "NNNNNNNNNNNNACGTACGTACGT";
  const HashFamily hashes(3, 22);
  const Sketch sketch = classic_minhash(seq, 6, hashes);
  EXPECT_EQ(sketch.per_trial[0].size(), 1u);
}

TEST(SketchByJem, FlatKernelMatchesFrozenReferenceKernel) {
  // The pre-overhaul deque kernel is the golden oracle. One scratch
  // alternates between one-block lists (span <= ℓ, the query shape: every
  // interval runs to the end) and many-block lists (wide spacing, ℓ down
  // to 0), so each call starts from the other shape's leftover buffers.
  // Every third round draws k-mers from a 2-4 value alphabet.
  util::Xoshiro256ss rng(78);
  SketchScratch scratch;
  FlatSketch flat;
  for (int round = 0; round < 80; ++round) {
    const bool one_block = round % 2 == 0;
    const std::uint64_t alphabet = round % 3 == 0 ? 2 + rng.bounded(3) : 0;
    std::vector<Minimizer> minimizers;
    std::uint32_t pos = 0;
    const std::size_t count = rng.bounded(150);
    const std::uint32_t gap = one_block ? 5 : 400;
    for (std::size_t i = 0; i < count; ++i) {
      pos += 1 + static_cast<std::uint32_t>(rng.bounded(gap));
      const KmerCode kmer =
          alphabet != 0 ? rng.bounded(alphabet) : rng() & 0xffffffffu;
      minimizers.push_back({kmer, pos});
    }
    const HashFamily hashes(1 + static_cast<int>(rng.bounded(8)), rng());
    std::uint32_t interval = 0;
    if (one_block) {
      // Half of these sit exactly at span == ℓ, the one-block boundary.
      const std::uint32_t span =
          count == 0 ? 0 : minimizers.back().position -
                               minimizers.front().position;
      interval = span + static_cast<std::uint32_t>(
                            round % 4 == 0 ? 0 : rng.bounded(500));
    } else {
      interval = static_cast<std::uint32_t>(
          round % 4 == 1 ? rng.bounded(2) : 1 + rng.bounded(1500));
    }
    sketch_by_jem(minimizers, interval, hashes, scratch, flat);
    if (count > 0 && one_block) {
      EXPECT_EQ(scratch.blocks.size(), 2u) << "round " << round;
    }
    if (count > 0 && interval == 0) {
      EXPECT_EQ(scratch.blocks.size(), count + 1) << "round " << round;
    }
    const Sketch reference =
        oracle::sketch_by_jem_reference(minimizers, interval, hashes);
    ASSERT_EQ(flat.trials(), reference.trials());
    for (int t = 0; t < reference.trials(); ++t) {
      ASSERT_EQ(as_set(flat.trial(t)),
                reference.per_trial[static_cast<std::size_t>(t)])
          << "round " << round << " trial " << t;
    }
  }
}

TEST(SketchTotalEntries, SumsAcrossTrials) {
  Sketch sketch;
  sketch.per_trial = {{1, 2, 3}, {4}, {}};
  EXPECT_EQ(sketch.total_entries(), 4u);
  EXPECT_EQ(sketch.trials(), 3);
}

// ---- Every sketch kernel against the scalar loop and both oracles --------
// Each kernel this host supports runs through the internal entry point; the
// others skip. The per-trial scalar loop (1 lane) is the lane kernels'
// oracle and runs everywhere.

class SketchLanes : public ::testing::TestWithParam<int> {
 protected:
  void SetUp() override {
    if (!detail::sketch_lanes_supported(GetParam())) {
      GTEST_SKIP() << GetParam() << "-lane kernel not supported here";
    }
  }

  /// Sketches `minimizers` on the kernel under test and checks it against
  /// the scalar loop element for element, and as sets against the naive
  /// loop and the deque reference kernel. A one-block list must come lowest
  /// (h_t, k-mer) first, as its suffix minima are walked; a list of several
  /// blocks sorted by k-mer.
  void expect_matches(const std::vector<Minimizer>& minimizers,
                      std::uint32_t interval, const HashFamily& hashes,
                      const std::string& what) {
    detail::sketch_by_jem_with(GetParam(), minimizers, interval, hashes,
                               scratch_, flat_);
    detail::sketch_by_jem_with(1, minimizers, interval, hashes,
                               scalar_scratch_, scalar_);
    const Sketch naive =
        oracle::sketch_by_jem_naive(minimizers, interval, hashes);
    const Sketch reference =
        oracle::sketch_by_jem_reference(minimizers, interval, hashes);
    ASSERT_EQ(flat_.offsets.size(),
              static_cast<std::size_t>(hashes.trials()) + 1)
        << what;
    ASSERT_EQ(flat_.kmers.size(), flat_.offsets.back()) << what;
    EXPECT_EQ(flat_.kmers, scalar_.kmers) << what;
    EXPECT_EQ(flat_.offsets, scalar_.offsets) << what;
    const bool one_block = scratch_.blocks.size() == 2;
    for (int t = 0; t < hashes.trials(); ++t) {
      const auto kmers = flat_.trial(t);
      const std::vector<KmerCode> got = as_set(kmers);
      ASSERT_EQ(got, naive.per_trial[static_cast<std::size_t>(t)])
          << what << " trial " << t;
      ASSERT_EQ(got, reference.per_trial[static_cast<std::size_t>(t)])
          << what << " trial " << t;
      for (std::size_t j = 1; j < kmers.size(); ++j) {
        const std::uint64_t h = hashes.hash(t, kmers[j]);
        const std::uint64_t before = hashes.hash(t, kmers[j - 1]);
        EXPECT_TRUE(one_block ? before < h ||
                                    (before == h && kmers[j - 1] < kmers[j])
                              : kmers[j - 1] < kmers[j])
            << what << " trial " << t << " entry " << j;
      }
    }
  }

  /// A position-sorted minimizer list of `count` entries with gaps in
  /// [1, gap]; k-mers below `alphabet` when it is nonzero (ties), else
  /// random `bits`-bit codes.
  static std::vector<Minimizer> random_list(util::Xoshiro256ss& rng,
                                            std::size_t count,
                                            std::uint32_t gap,
                                            std::uint64_t alphabet,
                                            int bits = 32) {
    std::vector<Minimizer> minimizers;
    std::uint32_t pos = 0;
    for (std::size_t i = 0; i < count; ++i) {
      pos += 1 + static_cast<std::uint32_t>(rng.bounded(gap));
      const KmerCode kmer = alphabet != 0
                                ? rng.bounded(alphabet)
                                : rng() & ((KmerCode{1} << bits) - 1);
      minimizers.push_back({kmer, pos});
    }
    return minimizers;
  }

  SketchScratch scratch_;  // reused by every call of a test
  SketchScratch scalar_scratch_;
  FlatSketch flat_;
  FlatSketch scalar_;
};

TEST_P(SketchLanes, EveryTrialCountAndIntervalLength) {
  // T around the lane widths (partial groups leave padding lanes that must
  // never emit) and ℓ from 0 (every minimizer its own block) to wider than
  // the list (one block). One scratch serves every call.
  util::Xoshiro256ss rng(91);
  for (const int trials : {1, 7, 8, 9, 30, 33, 64}) {
    const HashFamily hashes(trials, rng());
    for (const std::uint32_t interval : {0u, 1u, 500u, 1000u, 5000u}) {
      for (const std::size_t count : {std::size_t{0}, std::size_t{1},
                                      std::size_t{21}, std::size_t{140}}) {
        const auto minimizers = random_list(rng, count, 120, 0);
        expect_matches(minimizers, interval, hashes,
                       "T=" + std::to_string(trials) +
                           " l=" + std::to_string(interval) +
                           " n=" + std::to_string(count));
      }
    }
  }
}

TEST_P(SketchLanes, RepeatedKmersAndAlternatingShapes) {
  // One scratch alternates between one-block lists (span <= ℓ, the query
  // shape) and many-block lists (the subject shape), with k-mers from a 1-4
  // value alphabet every other round so (hash, k-mer) ties and repeated
  // minima recur, and lists longer than one 64-row emit mask.
  util::Xoshiro256ss rng(92);
  for (int round = 0; round < 60; ++round) {
    const bool one_block = round % 2 == 0;
    const std::uint64_t alphabet = round % 4 < 2 ? 1 + rng.bounded(4) : 0;
    const std::size_t count = rng.bounded(round % 3 == 0 ? 300 : 70);
    const auto minimizers =
        random_list(rng, count, one_block ? 4 : 300, alphabet);
    const std::uint32_t span =
        count == 0 ? 0
                   : minimizers.back().position - minimizers.front().position;
    const std::uint32_t interval =
        one_block ? span + static_cast<std::uint32_t>(rng.bounded(3))
                  : static_cast<std::uint32_t>(rng.bounded(1200));
    const HashFamily hashes(1 + static_cast<int>(rng.bounded(40)), rng());
    expect_matches(minimizers, interval, hashes,
                   "round " + std::to_string(round));
    if (count > 0 && one_block) {
      EXPECT_EQ(scratch_.blocks.size(), 2u);
    }
  }
}

TEST_P(SketchLanes, TinyModuliForceHashTies) {
  // With p of 2 to 13 distinct k-mers collide in nearly every interval,
  // so the (hash, k-mer) tie-break decides the minimum in every lane.
  util::Xoshiro256ss rng(96);
  std::vector<LcgHash> members;
  for (const std::uint64_t p : {2, 3, 5, 7, 11, 13, 2, 3, 5, 7, 11}) {
    members.push_back({rng.bounded(p), rng.bounded(p), p});
  }
  const HashFamily hashes(members);
  for (int round = 0; round < 20; ++round) {
    const auto minimizers =
        random_list(rng, rng.bounded(90), round % 2 == 0 ? 8 : 200, 0);
    const auto interval = static_cast<std::uint32_t>(1 + rng.bounded(900));
    expect_matches(minimizers, interval, hashes,
                   "round " + std::to_string(round));
    const std::string seq = random_dna(rng, 300);
    SketchScratch scalar_scratch;
    FlatSketch scalar;
    detail::classic_minhash_with(GetParam(), seq, 8, hashes, scratch_, flat_);
    detail::classic_minhash_with(1, seq, 8, hashes, scalar_scratch, scalar);
    EXPECT_EQ(flat_.kmers, scalar.kmers) << "round " << round;
  }
}

TEST_P(SketchLanes, WideKmersTakeTheScalarLoop) {
  // k-mers of more than 32 bits (k > 16) are outside the lane modulo's
  // range; the dispatch must fall back and stay exact.
  util::Xoshiro256ss rng(93);
  const HashFamily hashes(30, 5);
  for (const int bits : {33, 40, 60}) {
    const auto minimizers = random_list(rng, 90, 50, 0, bits);
    expect_matches(minimizers, 1000, hashes,
                   "bits=" + std::to_string(bits));
  }
}

TEST_P(SketchLanes, PaperParametersOnRandomSequences) {
  // Real minimizer lists at k = 16, w = 100: 1 kbp tiles (one block) and a
  // 50 kbp contig (many blocks) at ℓ = 1000, T = 30.
  util::Xoshiro256ss rng(94);
  const HashFamily hashes(30, 7);
  for (const std::size_t length : {1000, 1000, 50'000}) {
    const auto minimizers =
        minimizer_scan(random_dna(rng, length), MinimizerParams{16, 100});
    expect_matches(minimizers, 1000, hashes,
                   "len=" + std::to_string(length));
  }
}

TEST_P(SketchLanes, ClassicMinhashMatchesTheScalarLoop) {
  // Every trial's global argmin, for k inside the lane range and beyond
  // it, on sequences with ambiguous bases, too short or empty.
  util::Xoshiro256ss rng(95);
  SketchScratch scalar_scratch;
  FlatSketch scalar;
  for (const int trials : {1, 7, 9, 30, 33}) {
    const HashFamily hashes(trials, rng());
    for (const int k : {1, 5, 16, 17, 31}) {
      for (const std::size_t length : {0, 3, 40, 700}) {
        std::string seq = random_dna(rng, length);
        for (char& c : seq) {
          if (rng.bounded(25) == 0) c = 'N';
        }
        detail::classic_minhash_with(GetParam(), seq, k, hashes, scratch_,
                                     flat_);
        detail::classic_minhash_with(1, seq, k, hashes, scalar_scratch,
                                     scalar);
        const std::string what = "T=" + std::to_string(trials) +
                                 " k=" + std::to_string(k) +
                                 " len=" + std::to_string(length);
        EXPECT_EQ(flat_.kmers, scalar.kmers) << what;
        EXPECT_EQ(flat_.offsets, scalar.offsets) << what;
        const Sketch alloc = classic_minhash(seq, k, hashes);
        ASSERT_EQ(flat_.trials(), alloc.trials()) << what;
        for (int t = 0; t < trials; ++t) {
          const auto kmers = flat_.trial(t);
          EXPECT_EQ(std::vector<KmerCode>(kmers.begin(), kmers.end()),
                    alloc.per_trial[static_cast<std::size_t>(t)])
              << what;
        }
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Kernels, SketchLanes, ::testing::Values(1, 4, 8),
                         [](const ::testing::TestParamInfo<int>& info) {
                           return std::to_string(info.param) + "Lanes";
                         });

}  // namespace
}  // namespace jem::core
