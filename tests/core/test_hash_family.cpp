#include "core/hash_family.hpp"

#include <gtest/gtest.h>

#include <set>
#include <string>
#include <vector>

#include "core/sketch_lanes.hpp"
#include "util/prng.hpp"

namespace jem::core {
namespace {

TEST(IsPrime, KnownSmallValues) {
  EXPECT_FALSE(is_prime_u64(0));
  EXPECT_FALSE(is_prime_u64(1));
  EXPECT_TRUE(is_prime_u64(2));
  EXPECT_TRUE(is_prime_u64(3));
  EXPECT_FALSE(is_prime_u64(4));
  EXPECT_TRUE(is_prime_u64(5));
  EXPECT_FALSE(is_prime_u64(9));
  EXPECT_TRUE(is_prime_u64(97));
  EXPECT_FALSE(is_prime_u64(100));
}

TEST(IsPrime, KnownLargePrimes) {
  EXPECT_TRUE(is_prime_u64(2'147'483'647ULL));          // 2^31 - 1 (Mersenne)
  EXPECT_TRUE(is_prime_u64(2'305'843'009'213'693'951ULL));  // 2^61 - 1
  EXPECT_TRUE(is_prime_u64(18'446'744'073'709'551'557ULL));  // largest u64 prime
}

TEST(IsPrime, KnownLargeComposites) {
  EXPECT_FALSE(is_prime_u64(2'147'483'647ULL * 2));
  EXPECT_FALSE(is_prime_u64(3'215'031'751ULL));  // strong pseudoprime base 2..7
  EXPECT_FALSE(is_prime_u64((1ULL << 61) - 2));
}

TEST(IsPrime, AgreesWithTrialDivisionUpTo10000) {
  const auto trial_division = [](std::uint64_t n) {
    if (n < 2) return false;
    for (std::uint64_t d = 2; d * d <= n; ++d) {
      if (n % d == 0) return false;
    }
    return true;
  };
  for (std::uint64_t n = 0; n < 10000; ++n) {
    EXPECT_EQ(is_prime_u64(n), trial_division(n)) << "n=" << n;
  }
}

TEST(NextPrime, FindsSmallestPrimeAtLeastN) {
  EXPECT_EQ(next_prime_u64(0), 2u);
  EXPECT_EQ(next_prime_u64(2), 2u);
  EXPECT_EQ(next_prime_u64(3), 3u);
  EXPECT_EQ(next_prime_u64(4), 5u);
  EXPECT_EQ(next_prime_u64(90), 97u);
  EXPECT_EQ(next_prime_u64(97), 97u);
}

TEST(LcgHash, StaysBelowModulus) {
  const LcgHash h{123456789, 987654321, 1'000'000'007};
  for (KmerCode x : {0ULL, 1ULL, 0xffffffffULL, 0xffffffffffffffffULL}) {
    EXPECT_LT(h(x), h.p);
  }
}

TEST(LcgHash, IsAffine) {
  const LcgHash h{7, 13, 101};
  EXPECT_EQ(h(0), 13u);
  EXPECT_EQ(h(1), 20u);
  EXPECT_EQ(h(2), 27u);
}

TEST(LcgHash, MatchesWideModuloOnEveryInput) {
  // The x86-64 fast path divides with one divq when the high word of
  // a·x + b is below p (always, for a, b < p); other constants take the
  // generic 128-bit modulo. Both must equal it bit for bit.
  const auto reference = [](const LcgHash& h, KmerCode x) {
    return static_cast<std::uint64_t>(
        (static_cast<__uint128_t>(h.a) * x + h.b) % h.p);
  };
  const HashFamily family(30, 5);
  util::Xoshiro256ss rng(6);
  for (int t = 0; t < family.trials(); ++t) {
    for (const KmerCode x : std::initializer_list<KmerCode>{
             0, 1, 0xffffffffULL, ~KmerCode{0}, rng(), rng() >> 32}) {
      EXPECT_EQ(family.hash(t, x), reference(family[t], x)) << "x=" << x;
    }
  }
  // a >= p: the high word can reach p, where divq would overflow.
  const LcgHash wide{0xffffffffffffffffULL, 0xfffffffffffffff0ULL, 101};
  for (const KmerCode x :
       std::initializer_list<KmerCode>{0, 1, ~KmerCode{0}, rng()}) {
    EXPECT_EQ(wide(x), reference(wide, x)) << "x=" << x;
  }
}

TEST(HashFamily, RejectsNonPositiveTrials) {
  EXPECT_THROW(HashFamily(0, 1), std::invalid_argument);
}

TEST(HashFamily, IsDeterministicInSeed) {
  const HashFamily a(10, 42);
  const HashFamily b(10, 42);
  for (int t = 0; t < 10; ++t) {
    EXPECT_EQ(a[t].a, b[t].a);
    EXPECT_EQ(a[t].b, b[t].b);
    EXPECT_EQ(a[t].p, b[t].p);
  }
}

TEST(HashFamily, DiffersAcrossSeeds) {
  const HashFamily a(5, 1);
  const HashFamily b(5, 2);
  bool any_diff = false;
  for (int t = 0; t < 5; ++t) {
    if (a[t].a != b[t].a || a[t].p != b[t].p) any_diff = true;
  }
  EXPECT_TRUE(any_diff);
}

TEST(HashFamily, ModuliArePrimeAndLarge) {
  const HashFamily family(30, 7);
  for (int t = 0; t < 30; ++t) {
    EXPECT_TRUE(is_prime_u64(family[t].p));
    EXPECT_GT(family[t].p, 1ULL << 60);
    EXPECT_GE(family[t].a, 1u);
    EXPECT_LT(family[t].a, family[t].p);
    EXPECT_LT(family[t].b, family[t].p);
  }
}

TEST(HashFamily, TrialsAreDistinctFunctions) {
  const HashFamily family(30, 7);
  std::set<std::uint64_t> moduli;
  for (int t = 0; t < 30; ++t) moduli.insert(family[t].p);
  // Random 60-bit primes: collisions essentially impossible.
  EXPECT_EQ(moduli.size(), 30u);
}

TEST(HashFamily, DifferentTrialsRankKmersDifferently) {
  const HashFamily family(2, 99);
  // Find two k-mers ordered oppositely by the two trials.
  bool found_disagreement = false;
  for (KmerCode x = 0; x < 200 && !found_disagreement; ++x) {
    for (KmerCode y = x + 1; y < 200; ++y) {
      const bool order0 = family.hash(0, x) < family.hash(0, y);
      const bool order1 = family.hash(1, x) < family.hash(1, y);
      if (order0 != order1) {
        found_disagreement = true;
        break;
      }
    }
  }
  EXPECT_TRUE(found_disagreement);
}

TEST(HashFamily, HashesSpreadUniformly) {
  const HashFamily family(1, 5);
  // Bucket 10k consecutive ranks into 16 bins by hash value.
  constexpr int kBins = 16;
  std::array<int, kBins> counts{};
  const double bin_width = static_cast<double>(family[0].p) / kBins;
  for (KmerCode x = 0; x < 10000; ++x) {
    auto bin = static_cast<std::size_t>(
        static_cast<double>(family.hash(0, x)) / bin_width);
    if (bin >= kBins) bin = kBins - 1;
    ++counts[bin];
  }
  for (int count : counts) {
    EXPECT_NEAR(count, 10000 / kBins, 200);
  }
}

TEST(HashFamily, ExplicitMembersKeepTheirOrderAndPadTheLanes) {
  const HashFamily family(
      std::vector<LcgHash>{{7, 13, 101}, {1, 0, 2}, {5, 6, 7}});
  ASSERT_EQ(family.trials(), 3);
  EXPECT_EQ(family[2].a, 5u);
  EXPECT_EQ(family.hash(0, 1), 20u);
  const TrialConstants& lanes = family.lanes();
  ASSERT_EQ(lanes.p.size(), 8u);  // padded to whole 8-lane vectors
  EXPECT_EQ(lanes.a[0], 7u);
  EXPECT_EQ(lanes.b[2], 6u);
  EXPECT_DOUBLE_EQ(lanes.a_over_p[0], 7.0 / 101.0);
  EXPECT_EQ(lanes.p[3], 1u);  // a padding member
  EXPECT_EQ(HashFamily(30, 1).lanes().p.size(), 32u);
}

TEST(HashFamily, ExplicitMembersOutsideTheLaneRangeAreRejected) {
  EXPECT_THROW(HashFamily(std::vector<LcgHash>{}), std::invalid_argument);
  EXPECT_THROW(HashFamily(std::vector<LcgHash>{{101, 0, 101}}),
               std::invalid_argument);  // a = p
  EXPECT_THROW(HashFamily(std::vector<LcgHash>{{1, 101, 101}}),
               std::invalid_argument);  // b = p
  EXPECT_THROW(
      HashFamily(std::vector<LcgHash>{{1, 0, std::uint64_t{1} << 62}}),
      std::invalid_argument);  // p = 2^62
}

// ---- The lane kernels' divide-free modulo --------------------------------
// Every lane width this host runs hashes all trials of a family at once;
// each value must equal the 128-bit remainder. Unsupported widths skip.

class LaneModulo : public ::testing::TestWithParam<int> {
 protected:
  void SetUp() override {
    if (!detail::sketch_lanes_supported(GetParam())) {
      GTEST_SKIP() << GetParam() << "-lane kernel not supported here";
    }
  }

  static std::uint64_t reference(const LcgHash& h, KmerCode x) {
    return static_cast<std::uint64_t>(
        (static_cast<__uint128_t>(h.a) * x + h.b) % h.p);
  }

  /// Hashes `x` under every trial of `family` on the kernel under test and
  /// checks each against the 128-bit remainder.
  void expect_exact(const HashFamily& family, KmerCode x) {
    std::vector<std::uint64_t> lanes(family.lanes().p.size());
    detail::hash_trials(GetParam(), family, x, lanes.data());
    for (int t = 0; t < family.trials(); ++t) {
      const LcgHash& h = family[t];
      ASSERT_EQ(lanes[static_cast<std::size_t>(t)], reference(h, x))
          << "a=" << h.a << " b=" << h.b << " p=" << h.p << " x=" << x;
    }
  }

  /// The largest prime below 2^62 and the smallest above 2^60.
  static std::uint64_t prime_below_2_62() {
    std::uint64_t p = (std::uint64_t{1} << 62) - 1;
    while (!is_prime_u64(p)) p -= 2;
    return p;
  }
  static std::uint64_t prime_above_2_60() {
    return next_prime_u64((std::uint64_t{1} << 60) + 1);
  }
};

TEST_P(LaneModulo, ExactWhereTheDividendMeetsAMultipleOfP) {
  // a·x + b = m·p + d for d in {-1, 0, +1}: the quotient estimate sits at
  // the edge of an integer, where a rounding one way or the other shows.
  // a = ⌊(m·p + d) / x⌋ and b = the remainder, both below p.
  std::vector<LcgHash> members;
  std::vector<KmerCode> xs;
  for (const std::uint64_t p :
       {std::uint64_t{1000003}, std::uint64_t{4294967311u},
        prime_above_2_60(), prime_below_2_62(),
        (std::uint64_t{1} << 62) - 1}) {
    for (const KmerCode x : {KmerCode{1}, KmerCode{2}, KmerCode{3},
                             KmerCode{1000}, KmerCode{2147483659u},
                             KmerCode{4294967295u}}) {
      for (const std::uint64_t m :
           {std::uint64_t{1}, std::uint64_t{2}, x / 2, x - 1}) {
        for (const int d : {-1, 0, 1}) {
          __uint128_t target = static_cast<__uint128_t>(m) * p;
          if (d < 0) {
            target -= 1;
          } else {
            target += static_cast<unsigned>(d);
          }
          const __uint128_t a = target / x;
          const __uint128_t b = target % x;
          if (m == 0 || a >= p || b >= p) continue;
          members.push_back({static_cast<std::uint64_t>(a),
                             static_cast<std::uint64_t>(b), p});
          xs.push_back(x);
        }
      }
    }
  }
  ASSERT_GT(members.size(), 200u);
  for (std::size_t i = 0; i < members.size(); ++i) {
    const std::uint64_t r = reference(members[i], xs[i]);
    ASSERT_TRUE(r + 1 == members[i].p || r <= 1) << "not next to m·p";
    expect_exact(HashFamily(std::vector<LcgHash>{members[i]}), xs[i]);
  }
}

TEST_P(LaneModulo, ExactAtTheEdgesOfXAndOfTheConstants) {
  const std::uint64_t low = prime_above_2_60();
  const std::uint64_t high = prime_below_2_62();
  // a = b = p - 1 gives the largest dividend; a = 1, b = 0 the identity;
  // one family holds them all, so each lane meets a different modulus.
  const HashFamily edges(std::vector<LcgHash>{{low - 1, low - 1, low},
                                              {high - 1, high - 1, high},
                                              {1, 0, low},
                                              {1, 0, high},
                                              {high - 1, 0, high},
                                              {1, high - 1, high},
                                              {6, 7, 11},
                                              {0, 0, 1},
                                              {2, 1, 3}});
  for (const KmerCode x : {KmerCode{0}, KmerCode{1}, KmerCode{2},
                           KmerCode{4294967294u}, KmerCode{4294967295u}}) {
    expect_exact(edges, x);
    for (const std::uint64_t seed : {1, 7, 11}) {
      expect_exact(HashFamily(30, seed), x);
    }
  }
}

TEST_P(LaneModulo, ExactOnAMillionRandomTrialKmerPairs) {
  util::Xoshiro256ss rng(23);
  std::size_t pairs = 0;
  for (const std::uint64_t seed : {1, 2, 5, 7, 42}) {
    const HashFamily family(33, seed);
    for (int i = 0; i < 7000; ++i) {
      // Half the k-mers are short codes (small k), half use all 32 bits.
      const KmerCode x =
          i % 2 == 0 ? rng() & 0xffffffffu : rng.bounded(1u << 12);
      expect_exact(family, x);
      pairs += static_cast<std::size_t>(family.trials());
    }
  }
  EXPECT_GE(pairs, 1'000'000u);
}

INSTANTIATE_TEST_SUITE_P(Kernels, LaneModulo, ::testing::Values(4, 8),
                         [](const ::testing::TestParamInfo<int>& info) {
                           return std::to_string(info.param) + "Lanes";
                         });

}  // namespace
}  // namespace jem::core
