// BoundedQueue — a fixed-capacity MPMC queue with blocking backpressure,
// the hand-off between the streaming engine's reader and map stages. A full
// queue blocks producers (so a fast reader cannot buffer an unbounded number
// of batches ahead of slow mappers), an empty open queue blocks consumers,
// and close() releases everyone: queued items remain poppable so shutdown
// drains rather than drops.
#pragma once

#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <deque>
#include <mutex>
#include <optional>
#include <utility>

namespace jem::util {

/// Outcome of a timed queue operation: the wait either produced/consumed an
/// item, observed terminal closure (closed *and* drained for pops, closed at
/// all for pushes), or ran out of time with the queue still live.
enum class QueueOpResult { kSuccess, kClosed, kTimeout };

template <typename T>
class BoundedQueue {
 public:
  /// Capacity is clamped to at least 1 (a zero-capacity queue could never
  /// transfer an item).
  explicit BoundedQueue(std::size_t capacity)
      : capacity_(capacity == 0 ? 1 : capacity) {}

  BoundedQueue(const BoundedQueue&) = delete;
  BoundedQueue& operator=(const BoundedQueue&) = delete;

  [[nodiscard]] std::size_t capacity() const noexcept { return capacity_; }

  [[nodiscard]] std::size_t size() const {
    std::lock_guard lock(mutex_);
    return items_.size();
  }

  [[nodiscard]] bool closed() const {
    std::lock_guard lock(mutex_);
    return closed_;
  }

  /// Blocks while the queue is full. Returns false (dropping `value`) when
  /// the queue is closed, true once the item is enqueued.
  bool push(T value) {
    std::unique_lock lock(mutex_);
    not_full_.wait(lock,
                   [&] { return items_.size() < capacity_ || closed_; });
    if (closed_) return false;
    items_.push_back(std::move(value));
    lock.unlock();
    not_empty_.notify_one();
    return true;
  }

  /// Blocks while the queue is empty and open. Returns nullopt only once the
  /// queue is closed *and* drained, so no accepted item is ever lost.
  [[nodiscard]] std::optional<T> pop() {
    std::unique_lock lock(mutex_);
    not_empty_.wait(lock, [&] { return !items_.empty() || closed_; });
    if (items_.empty()) return std::nullopt;
    std::optional<T> value(std::move(items_.front()));
    items_.pop_front();
    lock.unlock();
    not_full_.notify_one();
    return value;
  }

  /// Timed push: waits at most `timeout` for a free slot. `value` is moved
  /// from only on kSuccess, so the caller can retry the same object after a
  /// kTimeout (the bounded-retry-with-backoff loops in the streaming engine
  /// depend on this).
  [[nodiscard]] QueueOpResult push_wait_for(T& value,
                                            std::chrono::nanoseconds timeout) {
    std::unique_lock lock(mutex_);
    const bool ready = not_full_.wait_for(lock, timeout, [&] {
      return items_.size() < capacity_ || closed_;
    });
    if (!ready) return QueueOpResult::kTimeout;
    if (closed_) return QueueOpResult::kClosed;
    items_.push_back(std::move(value));
    lock.unlock();
    not_empty_.notify_one();
    return QueueOpResult::kSuccess;
  }

  /// Timed pop: waits at most `timeout` for an item. kClosed is terminal
  /// (closed and drained); kTimeout means the queue is still live but empty.
  [[nodiscard]] QueueOpResult pop_wait_for(T& out,
                                           std::chrono::nanoseconds timeout) {
    std::unique_lock lock(mutex_);
    const bool ready = not_empty_.wait_for(
        lock, timeout, [&] { return !items_.empty() || closed_; });
    if (!ready) return QueueOpResult::kTimeout;
    if (items_.empty()) return QueueOpResult::kClosed;
    out = std::move(items_.front());
    items_.pop_front();
    lock.unlock();
    not_full_.notify_one();
    return QueueOpResult::kSuccess;
  }

  /// Marks the queue closed and wakes every blocked producer and consumer.
  /// Idempotent; pending items stay poppable.
  void close() {
    {
      std::lock_guard lock(mutex_);
      closed_ = true;
    }
    not_full_.notify_all();
    not_empty_.notify_all();
  }

 private:
  const std::size_t capacity_;
  mutable std::mutex mutex_;
  std::condition_variable not_full_;
  std::condition_variable not_empty_;
  std::deque<T> items_;
  bool closed_ = false;
};

}  // namespace jem::util
