#include "util/thread_pool.hpp"

#include <algorithm>
#include <exception>

namespace jem::util {

std::size_t default_threads(std::size_t requested) noexcept {
  if (requested > 0) return requested;
  return std::max(1u, std::thread::hardware_concurrency());
}

ThreadPool::ThreadPool(std::size_t num_threads) {
  const std::size_t count = std::max<std::size_t>(1, num_threads);
  workers_.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard lock(mutex_);
    stopping_ = true;
  }
  cv_task_.notify_all();
  for (std::thread& worker : workers_) worker.join();
}

std::future<void> ThreadPool::submit(std::function<void()> task) {
  std::packaged_task<void()> packaged(std::move(task));
  std::future<void> future = packaged.get_future();
  {
    std::lock_guard lock(mutex_);
    queue_.push(std::move(packaged));
  }
  cv_task_.notify_one();
  return future;
}

void ThreadPool::wait_idle() {
  std::unique_lock lock(mutex_);
  cv_idle_.wait(lock, [this] { return queue_.empty() && in_flight_ == 0; });
}

void ThreadPool::worker_loop() {
  while (true) {
    std::packaged_task<void()> task;
    {
      std::unique_lock lock(mutex_);
      cv_task_.wait(lock, [this] { return stopping_ || !queue_.empty(); });
      if (queue_.empty()) return;  // stopping_ and drained
      task = std::move(queue_.front());
      queue_.pop();
      ++in_flight_;
    }
    task();  // exceptions surface through the future
    {
      std::lock_guard lock(mutex_);
      --in_flight_;
      if (queue_.empty() && in_flight_ == 0) cv_idle_.notify_all();
    }
  }
}

namespace {

/// Waits for every future, then rethrows the first failure. Tasks refer to
/// the caller's stack, so none may still run when the caller unwinds.
void wait_all(std::vector<std::future<void>>& futures) {
  std::exception_ptr failure;
  for (auto& future : futures) {
    try {
      future.get();
    } catch (...) {
      if (!failure) failure = std::current_exception();
    }
  }
  if (failure) std::rethrow_exception(failure);
}

}  // namespace

void parallel_for_each(ThreadPool* pool, std::size_t n,
                       const std::function<void(std::size_t)>& fn) {
  if (pool == nullptr || n <= 1) {
    for (std::size_t i = 0; i < n; ++i) fn(i);
    return;
  }
  std::vector<std::future<void>> futures;
  futures.reserve(n);
  try {
    for (std::size_t i = 0; i < n; ++i) {
      futures.push_back(pool->submit([&fn, i] { fn(i); }));
    }
  } catch (...) {
    // A submit that could not allocate queued nothing; the tasks already
    // queued refer to `fn` and finish before it unwinds.
    for (auto& future : futures) future.wait();
    throw;
  }
  wait_all(futures);
}

}  // namespace jem::util
