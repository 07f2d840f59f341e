// mpisim: an in-process SPMD message-passing runtime.
//
// The paper's JEM-mapper is a distributed-memory MPI program (steps S1-S4,
// one MPI_Allgatherv collective). This container has no MPI implementation
// installed, so mpisim provides the message-passing programming model the
// LLNL MPI tutorial describes — ranks with private state, explicit
// cooperative communication — executed as one thread per rank inside a
// single process. Each rank's "address space" is its own stack/locals;
// all data movement goes through the Comm object. It carries exactly the
// collectives the distributed drivers call: MPI_Allgatherv (S3), a gather
// of the results at rank 0, and the all-to-all of the partitioned-table
// strategy.
//
// Semantics notes:
//  * Collectives are blocking and must be called by every rank of the
//    communicator in the same order (as in MPI).
//  * Payloads are trivially-copyable element types (the same restriction the
//    MPI datatype system effectively imposes for contiguous buffers).
//
// Robustness layer (docs/robustness.md):
//  * A rank that leaves the program — normal return, exception, or injected
//    FaultAbort — is marked inactive; pending and future collectives
//    complete over the remaining ranks instead of deadlocking, and its slot
//    in the exchange contributes nothing.
//  * A util::FaultInjector attached to a Comm turns every collective into a
//    fault site keyed by (rank, site, invocation): delays stall the call,
//    drops void its payload, aborts throw FaultAbort.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <span>
#include <stdexcept>
#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

#include "obs/obs.hpp"
#include "util/fault_plan.hpp"

namespace jem::mpisim {

/// Per-collective-site communication volume, resolved per rank. A "site" is
/// the collective's name as passed to guard_payload ("allgatherv",
/// "gatherv", "all_to_allv"). sent_bytes[r] is what rank r deposited;
/// recv_bytes[r] is what rank r takes out of the round: every part for
/// allgatherv, every part at the gatherv root and nothing elsewhere, and
/// the slices addressed to it for all_to_allv. This is the S3-imbalance
/// view the paper's Table II needs: with skewed partitions the allgatherv
/// sent rows differ per rank, and the gatherv and all_to_allv received
/// rows show which ranks take the traffic.
struct SiteCommStats {
  std::uint64_t calls = 0;                 // deposits: one per rank per op
  std::vector<std::uint64_t> sent_bytes;   // indexed by rank
  std::vector<std::uint64_t> recv_bytes;   // indexed by rank
};

/// Statistics about communication volume, gathered per run so the drivers
/// can charge modeled network time to the measured byte counts.
struct CommStats {
  std::uint64_t collective_calls = 0;
  std::uint64_t collective_bytes = 0;  // total payload across all ranks

  /// Byte volume broken down by collective site and rank
  /// (docs/observability.md).
  std::map<std::string, SiteCommStats, std::less<>> per_site;

  /// Adds this run's totals to `registry` under `mpisim.*` names: aggregate
  /// counters plus per-site `mpisim.<site>.rank<r>.{sent,recv}_bytes`.
  void publish(obs::Registry& registry) const;
};

namespace detail {

/// The collective exchange area shared by all ranks of one run.
class SharedState {
 public:
  SharedState(int size, obs::ObsHooks obs);

  /// All-to-all deposit/exchange: every active rank deposits `bytes`; once
  /// the last active rank arrives, a snapshot of all deposits becomes
  /// visible to every rank (inactive ranks' slots stay empty). This single
  /// primitive implements allgatherv, gatherv and all_to_allv. `site` names
  /// the collective for per-site byte accounting and tracer spans.
  using Snapshot = std::shared_ptr<const std::vector<std::vector<std::byte>>>;
  [[nodiscard]] Snapshot exchange(int rank, std::string_view site,
                                  std::vector<std::byte> bytes);

  /// Charges `bytes` to rank's received volume at `site`, once the
  /// collective knows what the rank took out of the snapshot.
  void received(int rank, std::string_view site, std::uint64_t bytes);

  /// Removes a rank that left the program from every current and future
  /// collective, publishing the round it was the last straggler of.
  void mark_inactive();

  [[nodiscard]] int size() const noexcept { return size_; }

  /// The run's totals; call after every rank has left.
  [[nodiscard]] const CommStats& stats() const noexcept { return stats_; }

 private:
  /// Publishes the current round if every active rank has arrived.
  /// Caller holds mutex_.
  void try_publish_locked();

  /// The per-site volume of `site`, created on first use. Caller holds
  /// mutex_.
  SiteCommStats& site_locked(std::string_view site);

  const int size_;
  const obs::ObsHooks obs_;

  std::mutex mutex_;  // guards everything below
  std::condition_variable cv_;
  std::vector<std::vector<std::byte>> slots_;
  int active_;
  int arrived_ = 0;
  std::uint64_t generation_ = 0;
  Snapshot snapshot_;
  CommStats stats_;
};

template <typename T>
std::vector<std::byte> to_bytes(std::span<const T> data) {
  static_assert(std::is_trivially_copyable_v<T>,
                "mpisim payloads must be trivially copyable");
  std::vector<std::byte> bytes(data.size_bytes());
  if (!data.empty()) {
    std::memcpy(bytes.data(), data.data(), data.size_bytes());
  }
  return bytes;
}

template <typename T>
std::vector<T> from_bytes(std::span<const std::byte> bytes) {
  static_assert(std::is_trivially_copyable_v<T>);
  if (bytes.size() % sizeof(T) != 0) {
    throw std::logic_error("mpisim: payload size not a multiple of element");
  }
  std::vector<T> data(bytes.size() / sizeof(T));
  if (!bytes.empty()) {
    std::memcpy(data.data(), bytes.data(), bytes.size());
  }
  return data;
}

}  // namespace detail

/// Per-rank handle to the communicator (analogous to MPI_COMM_WORLD plus the
/// caller's rank), made by run_spmd_ft for each rank's thread.
class Comm {
 public:
  Comm(int rank, detail::SharedState& state, util::FaultInjector* injector)
      : rank_(rank), state_(&state), injector_(injector) {}

  [[nodiscard]] int rank() const noexcept { return rank_; }
  [[nodiscard]] int size() const noexcept { return state_->size(); }

  /// Named fault site for driver code (e.g. "S4:map" between collectives):
  /// applies the attached injector's next decision for `site` — sleeps on
  /// delay, throws util::FaultAbort on abort; drop is a no-op here. Without
  /// an injector this is free.
  void fault_point(std::string_view site) {
    if (injector_ != nullptr) (void)injector_->fire(site);
  }

  /// MPI_Allgatherv: concatenation of every rank's vector, in rank order,
  /// visible at every rank. Ranks that died (or whose payload a fault
  /// dropped) contribute nothing.
  template <typename T>
  [[nodiscard]] std::vector<T> allgatherv(std::span<const T> local) {
    const auto snapshot = state_->exchange(
        rank_, "allgatherv",
        guard_payload("allgatherv", detail::to_bytes<T>(local)));
    std::vector<T> out;
    std::size_t total = 0;
    for (const auto& part : *snapshot) total += part.size() / sizeof(T);
    state_->received(rank_, "allgatherv", total * sizeof(T));
    out.reserve(total);
    for (const auto& part : *snapshot) {
      const auto decoded = detail::from_bytes<T>(part);
      out.insert(out.end(), decoded.begin(), decoded.end());
    }
    return out;
  }

  template <typename T>
  [[nodiscard]] std::vector<T> allgatherv(const std::vector<T>& local) {
    return allgatherv(std::span<const T>(local));
  }

  /// MPI_Gatherv to `root`: root receives per-rank vectors; others get {}.
  template <typename T>
  [[nodiscard]] std::vector<std::vector<T>> gatherv(std::span<const T> local,
                                                    int root) {
    const auto snapshot = state_->exchange(
        rank_, "gatherv",
        guard_payload("gatherv", detail::to_bytes<T>(local)));
    std::vector<std::vector<T>> out;
    if (rank_ == root) {
      std::uint64_t bytes = 0;
      out.reserve(snapshot->size());
      for (const auto& part : *snapshot) {
        out.push_back(detail::from_bytes<T>(part));
        bytes += part.size();
      }
      state_->received(rank_, "gatherv", bytes);
    }
    return out;
  }

  /// MPI_Alltoallv: `per_dest[d]` is this rank's payload for rank d; the
  /// result's element [s] is the payload rank s sent to this rank. A dead
  /// rank's (or dropped) slot yields empty payloads from that source.
  template <typename T>
  [[nodiscard]] std::vector<std::vector<T>> all_to_allv(
      const std::vector<std::vector<T>>& per_dest) {
    if (per_dest.size() != static_cast<std::size_t>(size())) {
      throw std::logic_error("all_to_allv: need one payload per rank");
    }
    // Serialize as [u64 count per dest]*size + concatenated payloads.
    std::vector<std::byte> blob;
    std::size_t total = 0;
    for (const auto& payload : per_dest) total += payload.size();
    blob.reserve(per_dest.size() * sizeof(std::uint64_t) +
                 total * sizeof(T));
    for (const auto& payload : per_dest) {
      const std::uint64_t count = payload.size();
      const auto* bytes = reinterpret_cast<const std::byte*>(&count);
      blob.insert(blob.end(), bytes, bytes + sizeof(count));
    }
    for (const auto& payload : per_dest) {
      const auto encoded = detail::to_bytes<T>(std::span<const T>(payload));
      blob.insert(blob.end(), encoded.begin(), encoded.end());
    }

    const auto snapshot = state_->exchange(
        rank_, "all_to_allv", guard_payload("all_to_allv", std::move(blob)));
    std::vector<std::vector<T>> received(static_cast<std::size_t>(size()));
    std::uint64_t received_bytes = 0;
    for (int src = 0; src < size(); ++src) {
      const auto& src_blob = (*snapshot)[static_cast<std::size_t>(src)];
      if (src_blob.empty()) continue;  // dead or dropped source
      // Walk the header to find this rank's slice.
      const std::size_t header =
          static_cast<std::size_t>(size()) * sizeof(std::uint64_t);
      if (src_blob.size() < header) {
        throw std::logic_error("all_to_allv: malformed payload");
      }
      std::size_t offset = header;
      std::uint64_t my_count = 0;
      for (int d = 0; d < size(); ++d) {
        std::uint64_t count = 0;
        std::memcpy(&count, src_blob.data() + d * sizeof(std::uint64_t),
                    sizeof(count));
        if (d == rank_) {
          my_count = count;
          break;
        }
        offset += static_cast<std::size_t>(count) * sizeof(T);
      }
      const std::size_t bytes = static_cast<std::size_t>(my_count) * sizeof(T);
      received[static_cast<std::size_t>(src)] = detail::from_bytes<T>(
          std::span<const std::byte>(src_blob).subspan(offset, bytes));
      received_bytes += bytes;
    }
    state_->received(rank_, "all_to_allv", received_bytes);
    return received;
  }

 private:
  /// Applies the injector at a payload-carrying site: delay sleeps, abort
  /// throws, drop replaces the payload with an empty one (the rank still
  /// participates in the collective, so the protocol stays aligned — only
  /// its data is lost, as with a dropped network message).
  std::vector<std::byte> guard_payload(std::string_view site,
                                       std::vector<std::byte> payload) {
    if (injector_ != nullptr && !injector_->fire(site)) payload.clear();
    return payload;
  }

  int rank_;
  detail::SharedState* state_;
  util::FaultInjector* injector_;
};

/// One abnormal rank exit in a fault-tolerant run.
struct RankFailure {
  int rank = -1;
  std::string site;     // fault site the rank aborted at
  std::string message;  // exception text
};

struct SpmdOptions {
  /// Not owned; may be null (no injected faults). Each rank gets its own
  /// util::FaultInjector over this plan.
  const util::FaultPlan* fault_plan = nullptr;
  /// Optional observability sinks (not owned; docs/observability.md). With
  /// a tracer attached each rank thread labels its track "rank N" and every
  /// collective records a span; with a metrics registry attached the run's
  /// CommStats and fault counters are published at join time.
  obs::ObsHooks obs;
};

struct SpmdReport {
  CommStats stats;
  std::vector<RankFailure> failures;  // ordered by rank
  std::uint64_t faults_injected = 0;  // decisions that fired, all ranks

  [[nodiscard]] bool ok() const noexcept { return failures.empty(); }
  [[nodiscard]] std::vector<int> failed_ranks() const {
    std::vector<int> ranks;
    ranks.reserve(failures.size());
    for (const RankFailure& failure : failures) ranks.push_back(failure.rank);
    return ranks;
  }
};

/// Launches `size` ranks, each running `body(comm)` on its own thread, and
/// joins them (analogous to mpirun -np size). Every exit marks the rank
/// inactive, so surviving ranks' collectives complete (degraded) instead of
/// deadlocking. Ranks that die of injected faults (util::FaultAbort) are
/// recorded in the report and the rest run to completion; any other
/// exception is rethrown (the first one, by rank order) after every rank has
/// finished, so nothing leaks or deadlocks.
SpmdReport run_spmd_ft(int size, const std::function<void(Comm&)>& body,
                       const SpmdOptions& options = {});

}  // namespace jem::mpisim
