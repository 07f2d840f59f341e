#include "util/bounded_queue.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <thread>
#include <vector>

namespace jem::util {
namespace {

using namespace std::chrono_literals;

/// Polls until `predicate` holds or ~2 s elapse (far beyond any scheduler
/// hiccup); returns whether it held.
template <typename Predicate>
bool eventually(Predicate predicate) {
  for (int i = 0; i < 2000; ++i) {
    if (predicate()) return true;
    std::this_thread::sleep_for(1ms);
  }
  return predicate();
}

TEST(BoundedQueueTest, FifoOrderSingleThread) {
  BoundedQueue<int> queue(4);
  EXPECT_TRUE(queue.push(1));
  EXPECT_TRUE(queue.push(2));
  EXPECT_TRUE(queue.push(3));
  EXPECT_EQ(queue.size(), 3u);
  EXPECT_EQ(queue.pop(), 1);
  EXPECT_EQ(queue.pop(), 2);
  EXPECT_EQ(queue.pop(), 3);
}

TEST(BoundedQueueTest, CapacityZeroClampsToOne) {
  BoundedQueue<int> queue(0);
  EXPECT_EQ(queue.capacity(), 1u);
  EXPECT_TRUE(queue.push(7));
  EXPECT_EQ(queue.pop(), 7);
}

TEST(BoundedQueueTest, ProducerBlocksWhenFullAndResumesAfterPop) {
  BoundedQueue<int> queue(2);
  std::atomic<int> pushed{0};
  std::thread producer([&] {
    for (int i = 0; i < 5; ++i) {
      ASSERT_TRUE(queue.push(i));
      ++pushed;
    }
  });

  // The producer lands exactly `capacity` pushes, then blocks on the full
  // queue: the count must hold at 2 for as long as nobody pops.
  ASSERT_TRUE(eventually([&] { return pushed.load() == 2; }));
  std::this_thread::sleep_for(50ms);
  EXPECT_EQ(pushed.load(), 2);
  EXPECT_EQ(queue.size(), queue.capacity());

  // Each pop frees one slot; draining unblocks the producer completely.
  EXPECT_EQ(queue.pop(), 0);
  ASSERT_TRUE(eventually([&] { return pushed.load() >= 3; }));
  for (int expected = 1; expected < 5; ++expected) {
    EXPECT_EQ(queue.pop(), expected);
  }
  producer.join();
  EXPECT_EQ(pushed.load(), 5);
}

TEST(BoundedQueueTest, CloseDrainsPendingItemsThenSignalsEnd) {
  BoundedQueue<int> queue(4);
  EXPECT_TRUE(queue.push(10));
  EXPECT_TRUE(queue.push(11));
  queue.close();
  EXPECT_FALSE(queue.push(12));  // rejected after close
  EXPECT_EQ(queue.pop(), 10);    // but accepted items still drain
  EXPECT_EQ(queue.pop(), 11);
  EXPECT_EQ(queue.pop(), std::nullopt);
  EXPECT_EQ(queue.pop(), std::nullopt);  // stays terminal
}

TEST(BoundedQueueTest, CloseWakesBlockedProducerAndConsumer) {
  BoundedQueue<int> full(1);
  ASSERT_TRUE(full.push(1));
  std::thread producer([&] { EXPECT_FALSE(full.push(2)); });
  BoundedQueue<int> empty(1);
  std::thread consumer([&] { EXPECT_EQ(empty.pop(), std::nullopt); });
  std::this_thread::sleep_for(20ms);  // let both block
  full.close();
  empty.close();
  producer.join();
  consumer.join();
}

TEST(BoundedQueueTest, NoDeadlockWhenConsumerStartsLate) {
  // The engine's failure mode this guards: the reader fills the queue
  // before any map worker has started popping. The producer must simply
  // wait, and the late consumer must receive every item in order.
  BoundedQueue<int> queue(1);
  constexpr int kItems = 20;
  std::thread producer([&] {
    for (int i = 0; i < kItems; ++i) ASSERT_TRUE(queue.push(i));
    queue.close();
  });
  std::this_thread::sleep_for(50ms);  // producer is long since blocked

  std::vector<int> received;
  while (auto item = queue.pop()) received.push_back(*item);
  producer.join();

  ASSERT_EQ(received.size(), static_cast<std::size_t>(kItems));
  for (int i = 0; i < kItems; ++i) EXPECT_EQ(received[i], i);
}

TEST(BoundedQueueTest, ManyProducersManyConsumersLoseNothing) {
  constexpr int kProducers = 4;
  constexpr int kConsumers = 4;
  constexpr int kPerProducer = 250;
  BoundedQueue<int> queue(3);

  std::vector<std::thread> producers;
  for (int p = 0; p < kProducers; ++p) {
    producers.emplace_back([&, p] {
      for (int i = 0; i < kPerProducer; ++i) {
        ASSERT_TRUE(queue.push(p * kPerProducer + i));
      }
    });
  }

  std::mutex collect_mutex;
  std::vector<int> collected;
  std::vector<std::thread> consumers;
  for (int c = 0; c < kConsumers; ++c) {
    consumers.emplace_back([&] {
      std::vector<int> local;
      while (auto item = queue.pop()) local.push_back(*item);
      std::lock_guard lock(collect_mutex);
      collected.insert(collected.end(), local.begin(), local.end());
    });
  }

  for (std::thread& producer : producers) producer.join();
  queue.close();
  for (std::thread& consumer : consumers) consumer.join();

  ASSERT_EQ(collected.size(),
            static_cast<std::size_t>(kProducers * kPerProducer));
  std::sort(collected.begin(), collected.end());
  for (int i = 0; i < kProducers * kPerProducer; ++i) {
    EXPECT_EQ(collected[static_cast<std::size_t>(i)], i);
  }
}

}  // namespace
}  // namespace jem::util
