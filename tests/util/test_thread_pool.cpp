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

TEST(BlockRange, CoversExactlyOnce) {
  for (std::size_t n : {0u, 1u, 7u, 64u, 100u}) {
    for (std::size_t p : {1u, 2u, 3u, 8u, 13u}) {
      std::size_t covered = 0;
      std::size_t prev_end = 0;
      for (std::size_t b = 0; b < p; ++b) {
        const BlockRange range = block_range(n, p, b);
        EXPECT_EQ(range.begin, prev_end);
        EXPECT_LE(range.begin, range.end);
        covered += range.end - range.begin;
        prev_end = range.end;
      }
      EXPECT_EQ(covered, n);
      EXPECT_EQ(prev_end, n);
    }
  }
}

TEST(BlockRange, SizesDifferByAtMostOne) {
  const std::size_t n = 103;
  const std::size_t p = 8;
  std::size_t min_size = n;
  std::size_t max_size = 0;
  for (std::size_t b = 0; b < p; ++b) {
    const BlockRange range = block_range(n, p, b);
    const std::size_t size = range.end - range.begin;
    min_size = std::min(min_size, size);
    max_size = std::max(max_size, size);
  }
  EXPECT_LE(max_size - min_size, 1u);
}

TEST(ParallelForBlocks, VisitsEveryIndexOnce) {
  ThreadPool pool(4);
  const std::size_t n = 1000;
  std::vector<std::atomic<int>> visits(n);
  parallel_for_blocks(pool, 0, n, 8,
                      [&](std::size_t, std::size_t begin, std::size_t end) {
                        for (std::size_t i = begin; i < end; ++i) {
                          ++visits[i];
                        }
                      });
  for (std::size_t i = 0; i < n; ++i) {
    EXPECT_EQ(visits[i].load(), 1) << "index " << i;
  }
}

TEST(ParallelForBlocks, HandlesOffsetRanges) {
  ThreadPool pool(2);
  std::atomic<std::size_t> sum{0};
  parallel_for_blocks(pool, 10, 20, 3,
                      [&](std::size_t, std::size_t begin, std::size_t end) {
                        for (std::size_t i = begin; i < end; ++i) sum += i;
                      });
  // 10 + 11 + ... + 19 = 145.
  EXPECT_EQ(sum.load(), 145u);
}

TEST(ParallelForBlocks, EmptyRangeIsANoop) {
  ThreadPool pool(2);
  std::atomic<int> calls{0};
  parallel_for_blocks(pool, 5, 5, 4,
                      [&](std::size_t, std::size_t, std::size_t) { ++calls; });
  EXPECT_EQ(calls.load(), 0);
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
