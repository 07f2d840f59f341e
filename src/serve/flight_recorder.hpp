// Flight recorder (docs/observability.md "Flight recorder"): a fixed-size
// ring of per-request records kept by the live server, so "what did the
// last N requests actually do" is answerable without logs or a tracer —
// `GET /debug/requests` serves it as JSON (newest-first, filterable), and
// SIGUSR1 dumps it to stderr.
//
// Lock-cheap by sharding: the ring is split across kShards independently
// mutex-guarded sub-rings; a push picks its shard by the caller's metrics
// stripe, holds that shard's mutex only for one record move, and never
// allocates ring storage after construction. Readers (rare) lock shards one
// at a time and merge by the global sequence number.
#pragma once

#include <atomic>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

namespace jem::serve {

/// One completed request, as the server saw it.
struct FlightRecord {
  std::uint64_t seq = 0;        ///< Global completion order (1-based).
  std::string trace_id;         ///< 32 hex chars (W3C trace id).
  std::string request_id;       ///< 16 hex chars (server span id).
  std::string endpoint;         ///< Request path, e.g. "/map".
  int status = 0;               ///< HTTP status served.
  bool cache_hit = false;       ///< /map answered from the LRU.
  /// Always 0 for /map: nothing queues between a worker's parse and its
  /// map. Kept because perfbench's serve probe and `obs_check --flight`
  /// require the field.
  std::uint64_t queue_wait_ns = 0;
  std::uint64_t map_ns = 0;         ///< MappingService::map wall time.
  std::uint64_t serialize_ns = 0;   ///< Response-body construction.
  std::uint64_t total_ns = 0;       ///< handle() entry to exit.
  std::string annotation;  ///< Failure code name; empty = clean.
};

/// Selection predicate for dump()/to_json().
struct FlightFilter {
  int status = 0;                  ///< 0 = any; else exact match.
  std::uint64_t min_total_ns = 0;  ///< Keep records at least this slow.
  std::size_t limit = ~std::size_t{0};  ///< Max records returned.
};

class FlightRecorder {
 public:
  /// Retains the newest `capacity` records (clamped to >= 1).
  explicit FlightRecorder(std::size_t capacity);

  /// Records one completed request. O(1), one short shard lock.
  void push(FlightRecord record);

  /// Matching records, newest first.
  [[nodiscard]] std::vector<FlightRecord> dump(
      const FlightFilter& filter = {}) const;

  /// `{"capacity":...,"recorded":...,"requests":[...]}`, newest first.
  [[nodiscard]] std::string to_json(const FlightFilter& filter = {}) const;

  /// Human-readable table (one line per record, newest first) for the
  /// SIGUSR1 stderr dump.
  [[nodiscard]] std::string to_text(std::size_t limit = ~std::size_t{0}) const;

  [[nodiscard]] std::size_t capacity() const noexcept { return capacity_; }

  /// Lifetime count of records pushed (>= retained).
  [[nodiscard]] std::uint64_t recorded() const noexcept;

 private:
  static constexpr std::size_t kShards = 8;

  struct Shard {
    mutable std::mutex mutex;
    std::vector<FlightRecord> ring;  ///< Fixed capacity after construction.
    std::size_t next = 0;            ///< Ring write cursor.
    std::size_t used = 0;            ///< Occupied slots (<= ring.size()).
  };

  std::size_t capacity_ = 0;
  std::vector<Shard> shards_;
  std::atomic<std::uint64_t> seq_{0};
};

}  // namespace jem::serve
