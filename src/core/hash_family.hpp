// The family of T random linear-congruential hash functions used for the
// MinHash trials (paper §III-B2, implementation notes):
//
//     h_t(x) = (A_t · x + B_t) mod P_t
//
// where x is the k-mer rank (its 2-bit encoding) and A_t, B_t, P_t are
// random constants generated a priori from the experiment seed. P_t is a
// random prime (distinct per trial) so each h_t is drawn from a universal
// family; A_t ∈ [1, P_t), B_t ∈ [0, P_t).
//
// Primality is checked with a deterministic Miller-Rabin test valid for all
// 64-bit inputs.
//
// The sketch kernels that hash one k-mer under many trials at once (src/
// core/sketch_lanes.cpp) read the constants as lane-padded arrays
// (HashFamily::lanes) and take the modulo without a divide: for x < 2^32
// and a, b < p < 2^62, q̂ = round(x·(a/p) + b/p), with a/p and b/p held as
// doubles, is ⌊(a·x + b)/p⌋ or one more (the double's error is below
// 2^-18), so r = a·x + b − q̂·p taken modulo 2^64 and read as signed lies in
// [−p, p), and one conditional add of p gives the exact remainder.
#pragma once

#include <cstdint>
#include <vector>

#include "core/kmer.hpp"

namespace jem::core {

/// Deterministic Miller-Rabin for any n < 2^64.
[[nodiscard]] bool is_prime_u64(std::uint64_t n) noexcept;

/// Smallest prime >= n (n must leave room below 2^64; valid for all inputs
/// this library generates, which are < 2^62).
[[nodiscard]] std::uint64_t next_prime_u64(std::uint64_t n) noexcept;

/// One trial's hash function.
struct LcgHash {
  std::uint64_t a = 1;
  std::uint64_t b = 0;
  std::uint64_t p = 2;  // prime modulus

  [[nodiscard]] std::uint64_t operator()(KmerCode x) const noexcept {
    const auto wide = static_cast<__uint128_t>(a) * x + b;
    const auto high = static_cast<std::uint64_t>(wide >> 64);
#if defined(__GNUC__) && defined(__x86_64__)
    // With a, b < p (every HashFamily member), a·x + b < p·2^64, so the
    // high word is below p and one 128-by-64 divq cannot overflow. That
    // skips the generic __umodti3 call the `%` below compiles to.
    if (high < p) [[likely]] {
      std::uint64_t quotient;
      std::uint64_t remainder;
      asm("divq %[p]"
          : "=a"(quotient), "=d"(remainder)
          : "a"(static_cast<std::uint64_t>(wide)), "d"(high), [p] "r"(p)
          : "cc");
      return remainder;
    }
#endif
    (void)high;
    return static_cast<std::uint64_t>(wide % p);
  }
};

/// The family's constants as struct-of-arrays: entry t of each array is
/// trial t's. The arrays run on to a multiple of kTrialLanes with padding
/// members {a = 0, b = 0, p = 1}, so a kernel loads whole vectors of trials.
struct TrialConstants {
  /// The widest trial group a kernel hashes at once (AVX-512: 8 lanes).
  static constexpr int kTrialLanes = 8;

  std::vector<std::uint64_t> a;
  std::vector<std::uint64_t> b;
  std::vector<std::uint64_t> p;
  std::vector<double> a_over_p;  // a/p and b/p rounded to double
  std::vector<double> b_over_p;
};

/// The T-member family. Constants are generated from `seed`; the same seed
/// always yields the same family, which is what makes subject and query
/// sketches comparable across processes (every rank derives the family from
/// the shared experiment seed rather than communicating it).
class HashFamily {
 public:
  HashFamily(int trials, std::uint64_t seed);

  /// The family of `hashes`, in trial order. Throws std::invalid_argument
  /// unless there is at least one and each has a < p, b < p and p < 2^62,
  /// the range the divide-free lane modulo is exact on.
  explicit HashFamily(std::vector<LcgHash> hashes);

  [[nodiscard]] int trials() const noexcept {
    return static_cast<int>(hashes_.size());
  }

  [[nodiscard]] const LcgHash& operator[](int t) const noexcept {
    return hashes_[static_cast<std::size_t>(t)];
  }

  [[nodiscard]] std::uint64_t hash(int t, KmerCode x) const noexcept {
    return hashes_[static_cast<std::size_t>(t)](x);
  }

  /// The constants, lane-padded, precomputed once here.
  [[nodiscard]] const TrialConstants& lanes() const noexcept { return lanes_; }

 private:
  std::vector<LcgHash> hashes_;
  TrialConstants lanes_;
};

}  // namespace jem::core
