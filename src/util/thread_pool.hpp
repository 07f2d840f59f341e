// Fixed-size thread pool with a blocking task queue plus a parallel_for
// helper with static block partitioning. This is the shared-memory execution
// substrate for the threaded mapper (the paper's comparison point runs
// Mashmap with 64 threads; our threaded drivers use this pool).
#pragma once

#include <condition_variable>
#include <cstddef>
#include <functional>
#include <future>
#include <mutex>
#include <queue>
#include <thread>
#include <vector>

namespace jem::util {

/// Worker count for a request of `requested` threads: the request itself,
/// or the hardware concurrency (at least 1) when it is 0.
[[nodiscard]] std::size_t default_threads(std::size_t requested) noexcept;

class ThreadPool {
 public:
  /// Spawns `num_threads` workers (at least 1).
  explicit ThreadPool(std::size_t num_threads);
  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;
  ~ThreadPool();

  [[nodiscard]] std::size_t size() const noexcept { return workers_.size(); }

  /// Enqueue a task; the returned future resolves when it completes.
  std::future<void> submit(std::function<void()> task);

  /// Blocks until every task submitted so far has finished.
  void wait_idle();

 private:
  void worker_loop();

  std::vector<std::thread> workers_;
  std::queue<std::packaged_task<void()>> queue_;
  std::mutex mutex_;
  std::condition_variable cv_task_;
  std::condition_variable cv_idle_;
  std::size_t in_flight_ = 0;
  bool stopping_ = false;
};

/// Statically partitions [begin, end) into `num_blocks` near-equal blocks and
/// invokes fn(block_index, block_begin, block_end) on the pool. Blocks until
/// all blocks complete. Block b gets the half-open range; sizes differ by at
/// most one.
void parallel_for_blocks(
    ThreadPool& pool, std::size_t begin, std::size_t end,
    std::size_t num_blocks,
    const std::function<void(std::size_t, std::size_t, std::size_t)>& fn);

/// Runs fn(i) for every i in [0, n), one pool task per index, and blocks
/// until all finish. Without a pool (or for n <= 1) the calls run inline on
/// this thread, in index order.
void parallel_for_each(ThreadPool* pool, std::size_t n,
                       const std::function<void(std::size_t)>& fn);

/// The half-open sub-range assigned to block `b` of `p` when dividing
/// [0, n) as evenly as possible (first n%p blocks get one extra element).
struct BlockRange {
  std::size_t begin;
  std::size_t end;
};
[[nodiscard]] constexpr BlockRange block_range(std::size_t n, std::size_t p,
                                               std::size_t b) noexcept {
  const std::size_t base = n / p;
  const std::size_t extra = n % p;
  const std::size_t begin = b * base + (b < extra ? b : extra);
  const std::size_t size = base + (b < extra ? 1 : 0);
  return {begin, begin + size};
}

}  // namespace jem::util
