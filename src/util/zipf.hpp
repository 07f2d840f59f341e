// zipf_distribution — Zipf(N, s) variates by rejection-inversion (Hörmann &
// Derflinger, "Rejection-inversion to generate variates from monotone
// discrete distributions", ACM TOMACS 6.3, 1996). The standard key-skew
// model for serving benchmarks: rank-1 keys dominate, the tail is long —
// exactly the "heavy traffic, repeated hot segments" shape the serve
// layer's LRU cache sees from perfbench's serve probe.
//
// Satisfies the standard RandomNumberDistribution call shape for the pieces
// we use: construct with (n, s), call with any UniformRandomBitGenerator
// (util::Xoshiro256ss), get ranks in [1, n]. Deterministic given the
// generator — no global RNG state.
#pragma once

#include <cassert>
#include <cmath>
#include <cstdint>
#include <limits>

namespace jem::util {

template <class IntType = std::uint64_t, class RealType = double>
class zipf_distribution {
 public:
  using result_type = IntType;

  /// Ranks are drawn from [1, n] with P(k) ∝ k^-s. `s` = 1 is classic
  /// Zipf; s > 1 skews harder toward rank 1.
  explicit zipf_distribution(IntType n, RealType s = 1.0)
      : n_(n),
        q_(s),
        h_x1_(h(RealType(1.5)) - RealType(1)),
        h_n_(h(RealType(n) + RealType(0.5))),
        dist_(h_x1_ - h_n_) {
    assert(n >= 1);
  }

  template <class Generator>
  IntType operator()(Generator& g) {
    while (true) {
      const RealType u = h_n_ + uniform01(g) * dist_;
      const RealType x = h_inv(u);
      IntType k = static_cast<IntType>(x + RealType(0.5));
      if (k < 1) k = 1;
      if (k > n_) k = n_;
      // Accept iff u lands inside the bar of rank k: the rejection step
      // that corrects the continuous envelope back to the discrete pmf.
      if (u >= h(RealType(k) + RealType(0.5)) - std::exp(-q_ * std::log(
                                                     RealType(k)))) {
        return k;
      }
    }
  }

  [[nodiscard]] IntType n() const noexcept { return n_; }
  [[nodiscard]] RealType s() const noexcept { return q_; }

 private:
  /// H(x) = ∫ x^-q dx: log for q == 1, power form otherwise.
  [[nodiscard]] RealType h(RealType x) const {
    const RealType log_x = std::log(x);
    if (q_ == RealType(1)) return log_x;
    return std::expm1((RealType(1) - q_) * log_x) / (RealType(1) - q_);
  }

  [[nodiscard]] RealType h_inv(RealType u) const {
    if (q_ == RealType(1)) return std::exp(u);
    return std::exp(std::log1p(u * (RealType(1) - q_)) / (RealType(1) - q_));
  }

  /// Uniform in [0, 1) from the top 53 bits of one 64-bit draw.
  template <class Generator>
  static RealType uniform01(Generator& g) {
    return RealType(g() >> 11) * RealType(0x1.0p-53);
  }

  IntType n_;
  RealType q_;
  RealType h_x1_;
  RealType h_n_;
  RealType dist_;
};

}  // namespace jem::util
