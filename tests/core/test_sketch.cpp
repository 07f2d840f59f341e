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

/// Sketch rows as the per-trial sorted sets they stand for, regrouped here
/// rather than by the library's view, after checking the row contract: the
/// sets are trial_set_words(T) words a row, no k-mer has two rows, and
/// every set is non-empty with no bit at or past T.
Sketch from_rows(const std::vector<KmerCode>& kmers,
                 const std::vector<std::uint64_t>& sets, int trials,
                 const std::string& what = "") {
  const auto t_count = static_cast<std::size_t>(trials);
  const std::size_t words = trial_set_words(t_count);
  Sketch sketch;
  sketch.per_trial.resize(t_count);
  EXPECT_EQ(sets.size(), kmers.size() * words) << what;
  if (sets.size() != kmers.size() * words) return sketch;
  std::vector<KmerCode> sorted = kmers;
  std::sort(sorted.begin(), sorted.end());
  EXPECT_EQ(std::adjacent_find(sorted.begin(), sorted.end()), sorted.end())
      << what << ": a k-mer has two rows";
  for (std::size_t d = 0; d < kmers.size(); ++d) {
    bool marked = false;
    for (std::size_t t = 0; t < words * 64; ++t) {
      if ((sets[d * words + t / 64] >> (t % 64) & 1) == 0) continue;
      marked = true;
      EXPECT_LT(t, t_count) << what << ": row " << d << " marks a padding bit";
      if (t < t_count) sketch.per_trial[t].push_back(kmers[d]);
    }
    EXPECT_TRUE(marked) << what << ": row " << d << " has no trial";
  }
  for (auto& trial : sketch.per_trial) std::sort(trial.begin(), trial.end());
  return sketch;
}

/// Expects two sketches to hold the same per-trial sets.
void expect_same(const Sketch& got, const Sketch& expected,
                 const std::string& what) {
  ASSERT_EQ(got.trials(), expected.trials()) << what;
  for (int t = 0; t < expected.trials(); ++t) {
    EXPECT_EQ(got.per_trial[static_cast<std::size_t>(t)],
              expected.per_trial[static_cast<std::size_t>(t)])
        << what << " trial " << t;
  }
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
  // The row kernel writing into reused rows must hold the sets of the
  // literal Algorithm 1 loop across random minimizer
  // lists and interval-length corners, with one scratch shared by all.
  // Every third round draws k-mers from a 2-4 value alphabet so equal
  // k-mers recur inside intervals (the (hash, kmer) tie-break and the
  // dedup), and every fourth uses ℓ ∈ {0, 1}: each interval is one or two
  // minimizers and nearly every minimizer is its own block.
  util::Xoshiro256ss rng(77);
  SketchScratch scratch;
  std::vector<KmerCode> kmers;
  std::vector<std::uint64_t> sets;
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
    sketch_by_jem_sets(minimizers, interval, hashes, scratch, kmers, sets);
    const std::string what = "round " + std::to_string(round);
    expect_same(from_rows(kmers, sets, hashes.trials(), what),
                oracle::sketch_by_jem_naive(minimizers, interval, hashes),
                what);
  }
}

TEST(SketchByJem, FlatKernelMatchesAllocatingOverloadOnNRichSequences) {
  // The rows and the allocating view both against the naive loop.
  util::Xoshiro256ss rng(78);
  SketchScratch scratch;
  std::vector<KmerCode> kmers;
  std::vector<std::uint64_t> sets;
  const HashFamily hashes(7, 21);
  for (int round = 0; round < 10; ++round) {
    std::string seq = random_dna(rng, 2000);
    for (std::size_t i = 0; i < seq.size(); ++i) {
      if (rng.bounded(20) == 0) seq[i] = 'N';
    }
    const SketchParams params{{9, 7}, 400};
    MinimizerScratch scan;
    std::vector<Minimizer> minimizers;
    minimizer_scan(seq, params.minimizer, scan, minimizers);
    const Sketch naive = oracle::sketch_by_jem_naive(
        minimizers, params.interval_length, hashes);
    sketch_by_jem_sets(minimizers, params.interval_length, hashes, scratch,
                       kmers, sets);
    const std::string what = "round " + std::to_string(round);
    expect_same(from_rows(kmers, sets, 7, what), naive, what);
    expect_same(sketch_by_jem(seq, params, hashes), naive, what);
  }
}

TEST(ClassicMinhash, FlatOverloadMatchesAllocating) {
  // The rows and the allocating view both against the brute-force argmin.
  util::Xoshiro256ss rng(79);
  SketchScratch scratch;
  std::vector<KmerCode> kmers;
  std::vector<std::uint64_t> sets;
  const HashFamily hashes(9, 31);
  for (const std::string& seq :
       {random_dna(rng, 500), std::string("ACGT"), std::string("NNNN"),
        std::string()}) {
    const Sketch naive = oracle::classic_minhash_naive(seq, 8, hashes);
    classic_minhash_sets(seq, 8, hashes, scratch, kmers, sets);
    expect_same(from_rows(kmers, sets, 9, seq), naive, seq);
    expect_same(classic_minhash(seq, 8, hashes), naive, seq);
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
  std::vector<KmerCode> kmers;
  std::vector<std::uint64_t> sets;
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
    sketch_by_jem_sets(minimizers, interval, hashes, scratch, kmers, sets);
    if (count > 0 && one_block) {
      EXPECT_EQ(scratch.blocks.size(), 2u) << "round " << round;
    }
    if (count > 0 && interval == 0) {
      EXPECT_EQ(scratch.blocks.size(), count + 1) << "round " << round;
    }
    const std::string what = "round " + std::to_string(round);
    expect_same(from_rows(kmers, sets, hashes.trials(), what),
                oracle::sketch_by_jem_reference(minimizers, interval, hashes),
                what);
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

  /// Sketches `minimizers` on the kernel under test and checks its rows
  /// against the scalar loop's row for row, and as sets against the naive
  /// loop and the deque reference kernel.
  void expect_matches(const std::vector<Minimizer>& minimizers,
                      std::uint32_t interval, const HashFamily& hashes,
                      const std::string& what) {
    detail::sketch_by_jem_sets_with(GetParam(), minimizers, interval, hashes,
                                    scratch_, kmers_, sets_);
    detail::sketch_by_jem_sets_with(1, minimizers, interval, hashes,
                                    scalar_scratch_, scalar_kmers_,
                                    scalar_sets_);
    EXPECT_EQ(kmers_, scalar_kmers_) << what;
    EXPECT_EQ(sets_, scalar_sets_) << what;
    const Sketch got = from_rows(kmers_, sets_, hashes.trials(), what);
    expect_same(got, oracle::sketch_by_jem_naive(minimizers, interval, hashes),
                what + " (naive)");
    expect_same(got,
                oracle::sketch_by_jem_reference(minimizers, interval, hashes),
                what + " (reference)");
  }

  /// classic_minhash_sets on the kernel under test against the scalar loop
  /// row for row and the brute-force argmin.
  void expect_minhash_matches(const std::string& seq, int k,
                              const HashFamily& hashes,
                              const std::string& what) {
    detail::classic_minhash_sets_with(GetParam(), seq, k, hashes, scratch_,
                                      kmers_, sets_);
    detail::classic_minhash_sets_with(1, seq, k, hashes, scalar_scratch_,
                                      scalar_kmers_, scalar_sets_);
    EXPECT_EQ(kmers_, scalar_kmers_) << what;
    EXPECT_EQ(sets_, scalar_sets_) << what;
    expect_same(from_rows(kmers_, sets_, hashes.trials(), what),
                oracle::classic_minhash_naive(seq, k, hashes), what);
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
  std::vector<KmerCode> kmers_;
  std::vector<std::uint64_t> sets_;
  std::vector<KmerCode> scalar_kmers_;
  std::vector<std::uint64_t> scalar_sets_;
};

TEST_P(SketchLanes, EveryTrialCountAndIntervalLength) {
  // T around the lane widths (partial groups leave padding lanes that must
  // never emit) and ℓ from 0 (every minimizer its own block) to wider than
  // the list (one block). One scratch serves every call.
  util::Xoshiro256ss rng(91);
  for (const int trials : {1, 7, 8, 9, 30, 33, 64, 65}) {
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
    expect_minhash_matches(random_dna(rng, 300), 8, hashes,
                           "minhash round " + std::to_string(round));
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
  for (const int trials : {1, 7, 9, 30, 33, 65}) {
    const HashFamily hashes(trials, rng());
    for (const int k : {1, 5, 16, 17, 31}) {
      for (const std::size_t length : {0, 3, 40, 700}) {
        std::string seq = random_dna(rng, length);
        for (char& c : seq) {
          if (rng.bounded(25) == 0) c = 'N';
        }
        expect_minhash_matches(seq, k, hashes,
                               "T=" + std::to_string(trials) +
                                   " k=" + std::to_string(k) +
                                   " len=" + std::to_string(length));
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
