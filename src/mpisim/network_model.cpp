#include "mpisim/network_model.hpp"

#include <bit>
#include <cmath>

namespace jem::mpisim {

namespace {
int ceil_log2(int p) {
  if (p <= 1) return 0;
  return std::bit_width(static_cast<unsigned>(p - 1));
}
}  // namespace

double NetworkModel::allgatherv_s(int p, std::uint64_t total_bytes) const {
  if (p <= 1) return 0.0;
  const double steps = static_cast<double>(p - 1);
  const double moved =
      static_cast<double>(total_bytes) * steps / static_cast<double>(p);
  return latency_s * steps + sec_per_byte * moved;
}

double NetworkModel::reduce_s(int p, std::uint64_t bytes) const {
  if (p <= 1) return 0.0;
  const double rounds = static_cast<double>(ceil_log2(p));
  return rounds * (latency_s + sec_per_byte * static_cast<double>(bytes));
}

}  // namespace jem::mpisim
