#include "runtime/request_queue.h"

#include <algorithm>
#include <string>
#include <utility>

namespace scbnn::runtime {

QueueFullError::QueueFullError(std::size_t capacity, std::size_t depth)
    : std::runtime_error("RequestQueue: queue is full (capacity " +
                         std::to_string(capacity) + ", depth " +
                         std::to_string(depth) + "); request rejected"),
      capacity_(capacity),
      depth_(depth) {}

RequestQueue::RequestQueue(std::size_t capacity) : capacity_(capacity) {
  if (capacity < 1) {
    throw std::invalid_argument("RequestQueue: capacity must be >= 1");
  }
}

void RequestQueue::push(Request&& request) {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (closed_) {
      throw std::runtime_error("RequestQueue: push after close");
    }
    if (queue_.size() >= capacity_) {
      throw QueueFullError(capacity_, queue_.size());
    }
    queue_.push_back(std::move(request));
  }
  cv_.notify_one();
}

std::vector<Request> RequestQueue::pop_batch(
    int max_batch, std::chrono::microseconds max_delay) {
  // Bound the delay so enqueued_at + max_delay cannot overflow the
  // clock's representation (a wrapped deadline would dispatch everything
  // as singleton batches). An hour is already absurd for micro-batching.
  max_delay = std::min(max_delay,
                       std::chrono::microseconds(std::chrono::hours(1)));

  std::unique_lock<std::mutex> lock(mutex_);
  cv_.wait(lock, [this] { return closed_ || !queue_.empty(); });
  if (queue_.empty()) return {};  // closed and drained

  // The batch former's deadline belongs to the *oldest* waiting request:
  // no request waits longer than max_delay for companions.
  const auto deadline = queue_.front().enqueued_at + max_delay;
  cv_.wait_until(lock, deadline, [this, max_batch] {
    return closed_ || queue_.size() >= static_cast<std::size_t>(max_batch);
  });

  const std::size_t take =
      std::min(queue_.size(), static_cast<std::size_t>(max_batch));
  std::vector<Request> batch;
  batch.reserve(take);
  for (std::size_t i = 0; i < take; ++i) {
    batch.push_back(std::move(queue_.front()));
    queue_.pop_front();
  }
  return batch;
}

void RequestQueue::close() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    closed_ = true;
  }
  cv_.notify_all();
}

std::size_t RequestQueue::size() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return queue_.size();
}

bool RequestQueue::closed() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return closed_;
}

}  // namespace scbnn::runtime
