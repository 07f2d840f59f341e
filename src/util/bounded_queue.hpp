// BoundedQueue — a fixed-capacity MPMC queue with blocking backpressure,
// the hand-off between the streaming engine's reader and map stages. A full
// queue blocks producers (so a fast reader cannot buffer an unbounded number
// of batches ahead of slow mappers), an empty open queue blocks consumers,
// and close() releases everyone: queued items remain poppable so shutdown
// drains rather than drops.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <mutex>
#include <optional>
#include <utility>

namespace jem::util {

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

  /// Non-blocking push: enqueues `value` and returns true if the queue is
  /// open and has a free slot; otherwise returns false and leaves `value`
  /// untouched, so the caller still owns it (the server's admission shed
  /// answers the connection it could not queue).
  [[nodiscard]] bool try_push(T& value) {
    std::unique_lock lock(mutex_);
    if (closed_ || items_.size() >= capacity_) return false;
    items_.push_back(std::move(value));
    lock.unlock();
    not_empty_.notify_one();
    return true;
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
