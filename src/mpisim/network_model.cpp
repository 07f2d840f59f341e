#include "mpisim/network_model.hpp"

namespace jem::mpisim {

double NetworkModel::allgatherv_s(int p, std::uint64_t total_bytes) const {
  if (p <= 1) return 0.0;
  const double steps = static_cast<double>(p - 1);
  const double moved =
      static_cast<double>(total_bytes) * steps / static_cast<double>(p);
  return latency_s * steps + sec_per_byte * moved;
}

}  // namespace jem::mpisim
