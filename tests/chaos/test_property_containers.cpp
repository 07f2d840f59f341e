// Property tests for the concurrency substrate the streaming pipeline
// stands on: BoundedQueue's close semantics are pinned down — close wakes
// every waiter, accepted items are never lost, and a refused try_push does
// not steal the caller's value.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "util/bounded_queue.hpp"

namespace jem::util {
namespace {

using std::chrono::milliseconds;

TEST(PropertyContainers, BoundedQueuePopAfterCloseDrainsEverything) {
  BoundedQueue<int> queue(8);
  EXPECT_TRUE(queue.push(1));
  EXPECT_TRUE(queue.push(2));
  EXPECT_TRUE(queue.push(3));
  queue.close();
  EXPECT_FALSE(queue.push(4)) << "a closed queue accepts nothing new";
  EXPECT_EQ(queue.pop(), std::optional<int>(1));
  EXPECT_EQ(queue.pop(), std::optional<int>(2));
  EXPECT_EQ(queue.pop(), std::optional<int>(3));
  EXPECT_EQ(queue.pop(), std::nullopt) << "drained + closed is terminal";
}

TEST(PropertyContainers, CloseWakesBlockedConsumer) {
  BoundedQueue<int> queue(4);
  std::optional<int> result(123);
  std::thread consumer([&] { result = queue.pop(); });
  std::this_thread::sleep_for(milliseconds(20));  // let it block
  queue.close();
  consumer.join();
  EXPECT_EQ(result, std::nullopt);
}

TEST(PropertyContainers, CloseWakesBlockedProducer) {
  BoundedQueue<int> queue(1);
  ASSERT_TRUE(queue.push(1));  // now full
  bool accepted = true;
  std::thread producer([&] { accepted = queue.push(2); });
  std::this_thread::sleep_for(milliseconds(20));  // let it block on full
  queue.close();
  producer.join();
  EXPECT_FALSE(accepted);
  // The item accepted before close is still there.
  EXPECT_EQ(queue.pop(), std::optional<int>(1));
  EXPECT_EQ(queue.pop(), std::nullopt);
}

TEST(PropertyContainers, TryPushRefusesWhenFullOrClosed) {
  BoundedQueue<std::string> queue(1);
  std::string item = "first";
  ASSERT_TRUE(queue.try_push(item));

  // Full queue: the push is refused at once, without consuming the value.
  std::string second = "second";
  EXPECT_FALSE(queue.try_push(second));
  EXPECT_EQ(second, "second") << "a refused push must leave the value intact";

  EXPECT_EQ(queue.pop(), std::optional<std::string>("first"));
  queue.close();
  EXPECT_FALSE(queue.try_push(second));
  EXPECT_EQ(second, "second") << "a closed queue must leave the value intact";
  EXPECT_EQ(queue.pop(), std::nullopt);
}

TEST(PropertyContainers, CloseWhileManyWaitersReleasesAll) {
  BoundedQueue<int> queue(2);
  std::vector<std::thread> waiters;
  std::atomic<int> woken{0};
  for (int i = 0; i < 6; ++i) {
    waiters.emplace_back([&] {
      (void)queue.pop();  // all block: the queue stays empty
      ++woken;
    });
  }
  std::this_thread::sleep_for(milliseconds(20));
  queue.close();
  for (std::thread& t : waiters) t.join();
  EXPECT_EQ(woken.load(), 6);
}

}  // namespace
}  // namespace jem::util
