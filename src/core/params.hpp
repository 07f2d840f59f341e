// The parameter block every JEM-mapper driver shares. Defaults are the
// paper's software configuration (§IV-A): k = 16, w = 100, T = 30,
// ℓ = 1000 bp.
#pragma once

#include <cstdint>
#include <stdexcept>

#include "core/minimizer.hpp"

namespace jem::core {

struct MapParams {
  int k = 16;                        // k-mer size
  int w = 100;                       // minimizer window (in k-mers)
  MinimizerOrdering ordering = MinimizerOrdering::kLexicographic;
  int trials = 30;                   // T, number of MinHash trials
  std::uint32_t segment_length = 1000;  // ℓ, end-segment / interval length
  std::uint64_t seed = 20230517;     // experiment seed (hash family etc.)
  std::uint32_t min_votes = 1;       // minimum trial votes to report a hit

  void validate() const {
    if (k < 1 || k > 32) throw std::invalid_argument("MapParams: bad k");
    if (w < 1) throw std::invalid_argument("MapParams: bad w");
    if (trials < 1) throw std::invalid_argument("MapParams: bad trials");
    if (segment_length == 0) {
      throw std::invalid_argument("MapParams: bad segment_length");
    }
    if (min_votes < 1) {
      throw std::invalid_argument("MapParams: min_votes must be >= 1");
    }
  }
};

}  // namespace jem::core
