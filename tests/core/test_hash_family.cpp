#include "core/hash_family.hpp"

#include <gtest/gtest.h>

#include <set>

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

}  // namespace
}  // namespace jem::core
