// Fixed-size thread pool with a blocking task queue plus a parallel_for_each
// helper. This is the shared-memory execution substrate for the threaded
// mapper (the paper's comparison point runs Mashmap with 64 threads; our
// threaded drivers use this pool).
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

/// Runs fn(i) for every i in [0, n), one pool task per index, and blocks
/// until all finish. Without a pool (or for n <= 1) the calls run inline on
/// this thread, in index order. If a task cannot be submitted, the tasks
/// already submitted finish, the rest never run, and the error propagates.
void parallel_for_each(ThreadPool* pool, std::size_t n,
                       const std::function<void(std::size_t)>& fn);

}  // namespace jem::util
