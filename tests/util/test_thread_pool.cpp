#include "util/thread_pool.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <numeric>
#include <stdexcept>
#include <thread>
#include <vector>

namespace jem::util {
namespace {

TEST(ThreadPool, RunsSubmittedTasks) {
  ThreadPool pool(4);
  std::atomic<int> counter{0};
  std::vector<std::future<void>> futures;
  for (int i = 0; i < 100; ++i) {
    futures.push_back(pool.submit([&counter] { ++counter; }));
  }
  for (auto& future : futures) future.get();
  EXPECT_EQ(counter.load(), 100);
}

TEST(ThreadPool, AtLeastOneWorkerEvenForZero) {
  ThreadPool pool(0);
  EXPECT_EQ(pool.size(), 1u);
  auto future = pool.submit([] {});
  future.get();
}

TEST(ThreadPool, WaitIdleBlocksUntilDrained) {
  ThreadPool pool(2);
  std::atomic<int> done{0};
  for (int i = 0; i < 20; ++i) {
    (void)pool.submit([&done] { ++done; });
  }
  pool.wait_idle();
  EXPECT_EQ(done.load(), 20);
}

TEST(ThreadPool, ExceptionsPropagateThroughFutures) {
  ThreadPool pool(2);
  auto future = pool.submit([] { throw std::runtime_error("boom"); });
  EXPECT_THROW(future.get(), std::runtime_error);
}

TEST(ParallelForEach, RunsEveryIndexOnceWithOrWithoutAPool) {
  ThreadPool pool(3);
  for (ThreadPool* workers : {&pool, static_cast<ThreadPool*>(nullptr)}) {
    std::vector<std::atomic<int>> hits(17);
    parallel_for_each(workers, hits.size(),
                      [&](std::size_t i) { hits[i].fetch_add(1); });
    for (const auto& hit : hits) EXPECT_EQ(hit.load(), 1);
  }
}

TEST(ParallelForEach, WaitsForEveryTaskBeforeRethrowing) {
  // Tasks use the caller's stack: a failure must not unwind it while
  // other tasks still run.
  ThreadPool pool(4);
  std::atomic<int> finished{0};
  EXPECT_THROW(parallel_for_each(&pool, 8,
                                 [&](std::size_t i) {
                                   if (i == 0) throw std::runtime_error("x");
                                   std::this_thread::sleep_for(
                                       std::chrono::milliseconds(20));
                                   finished.fetch_add(1);
                                 }),
               std::runtime_error);
  EXPECT_EQ(finished.load(), 7);
}

TEST(DefaultThreads, ZeroMeansEveryHardwareThread) {
  EXPECT_EQ(default_threads(3), 3u);
  EXPECT_GE(default_threads(0), 1u);
}

}  // namespace
}  // namespace jem::util
