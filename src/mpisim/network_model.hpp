// α-β (latency/bandwidth) cost model for the cluster the paper evaluated on
// (9 nodes, 10 Gbps Ethernet). The staged BSP executor uses this model to
// charge communication time to the measured payload volumes, reproducing the
// paper's communication-fraction analysis (Fig 8) and the O(τ log p + μ·V)
// allgather term of the complexity analysis (§III-C1).
#pragma once

#include <cstdint>

namespace jem::mpisim {

struct NetworkModel {
  /// Per-message latency in seconds (τ). Default: 50 µs, typical for
  /// 10 GbE + TCP.
  double latency_s = 50e-6;

  /// Reciprocal bandwidth in seconds per byte (μ). Default: 10 Gbps payload
  /// rate → 1.25 GB/s → 8e-10 s/B.
  double sec_per_byte = 8e-10;

  /// Time for MPI_Allgatherv on p ranks where the union of all contributions
  /// is total_bytes and every rank must end with the full union.
  /// Ring algorithm: p-1 steps, each moving total_bytes/p on average:
  ///   τ·(p-1) + μ·total_bytes·(p-1)/p
  /// For p=1 the collective is free.
  [[nodiscard]] double allgatherv_s(int p, std::uint64_t total_bytes) const;
};

}  // namespace jem::mpisim
