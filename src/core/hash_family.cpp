#include "core/hash_family.hpp"

#include <array>
#include <stdexcept>
#include <utility>

#include "util/prng.hpp"

namespace jem::core {

namespace {

std::uint64_t mulmod_u64(std::uint64_t a, std::uint64_t b,
                         std::uint64_t m) noexcept {
  return static_cast<std::uint64_t>(static_cast<__uint128_t>(a) * b % m);
}

std::uint64_t powmod_u64(std::uint64_t base, std::uint64_t exp,
                         std::uint64_t m) noexcept {
  std::uint64_t result = 1 % m;
  base %= m;
  while (exp > 0) {
    if (exp & 1u) result = mulmod_u64(result, base, m);
    base = mulmod_u64(base, base, m);
    exp >>= 1;
  }
  return result;
}

}  // namespace

bool is_prime_u64(std::uint64_t n) noexcept {
  if (n < 2) return false;
  for (std::uint64_t p : {2ULL, 3ULL, 5ULL, 7ULL, 11ULL, 13ULL, 17ULL, 19ULL,
                          23ULL, 29ULL, 31ULL, 37ULL}) {
    if (n % p == 0) return n == p;
  }
  // Write n-1 = d * 2^r with d odd.
  std::uint64_t d = n - 1;
  int r = 0;
  while ((d & 1u) == 0) {
    d >>= 1;
    ++r;
  }
  // This witness set is deterministic for all n < 2^64
  // (Sinclair 2011, verified set).
  constexpr std::array<std::uint64_t, 7> kWitnesses{
      2ULL, 325ULL, 9375ULL, 28178ULL, 450775ULL, 9780504ULL, 1795265022ULL};
  for (std::uint64_t a : kWitnesses) {
    const std::uint64_t base = a % n;
    if (base == 0) continue;
    std::uint64_t x = powmod_u64(base, d, n);
    if (x == 1 || x == n - 1) continue;
    bool composite = true;
    for (int i = 0; i < r - 1; ++i) {
      x = mulmod_u64(x, x, n);
      if (x == n - 1) {
        composite = false;
        break;
      }
    }
    if (composite) return false;
  }
  return true;
}

std::uint64_t next_prime_u64(std::uint64_t n) noexcept {
  if (n <= 2) return 2;
  if ((n & 1u) == 0) ++n;
  while (!is_prime_u64(n)) n += 2;
  return n;
}

namespace {

/// The `trials` members drawn from `seed`.
std::vector<LcgHash> draw_family(int trials, std::uint64_t seed) {
  if (trials < 1) {
    throw std::invalid_argument("HashFamily: trials must be >= 1");
  }
  std::vector<LcgHash> hashes;
  hashes.reserve(static_cast<std::size_t>(trials));
  util::Xoshiro256ss rng(util::mix64(seed ^ 0x4a454d5f48415348ULL));
  for (int t = 0; t < trials; ++t) {
    // Random ~61-bit prime modulus, distinct constants per trial. The
    // modulus comfortably exceeds any 2k-bit k-mer rank (k <= 30 at 60
    // bits), so the LCG acts on the full rank without wrap-around in x.
    const std::uint64_t start =
        (1ULL << 60) + (rng() & ((1ULL << 60) - 1));
    LcgHash h;
    h.p = next_prime_u64(start);
    h.a = 1 + rng.bounded(h.p - 1);  // [1, p)
    h.b = rng.bounded(h.p);          // [0, p)
    hashes.push_back(h);
  }
  return hashes;
}

}  // namespace

HashFamily::HashFamily(int trials, std::uint64_t seed)
    : HashFamily(draw_family(trials, seed)) {}

HashFamily::HashFamily(std::vector<LcgHash> hashes)
    : hashes_(std::move(hashes)) {
  if (hashes_.empty()) {
    throw std::invalid_argument("HashFamily: trials must be >= 1");
  }
  constexpr auto kLanes = static_cast<std::size_t>(TrialConstants::kTrialLanes);
  const std::size_t padded = (hashes_.size() + kLanes - 1) / kLanes * kLanes;
  lanes_.a.assign(padded, 0);
  lanes_.b.assign(padded, 0);
  lanes_.p.assign(padded, 1);
  lanes_.a_over_p.assign(padded, 0.0);
  lanes_.b_over_p.assign(padded, 0.0);
  for (std::size_t t = 0; t < hashes_.size(); ++t) {
    const LcgHash& h = hashes_[t];
    if (h.p >= (std::uint64_t{1} << 62) || h.a >= h.p || h.b >= h.p) {
      throw std::invalid_argument(
          "HashFamily: each member needs a < p, b < p and p < 2^62");
    }
    lanes_.a[t] = h.a;
    lanes_.b[t] = h.b;
    lanes_.p[t] = h.p;
    lanes_.a_over_p[t] =
        static_cast<double>(h.a) / static_cast<double>(h.p);
    lanes_.b_over_p[t] =
        static_cast<double>(h.b) / static_cast<double>(h.p);
  }
}

}  // namespace jem::core
