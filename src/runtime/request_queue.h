// Bounded MPSC request queue for the serving core.
//
// Producers (any thread) push single-frame requests; one consumer — the
// Server's batch-former thread — pops them in arrival order as dynamic
// micro-batches. Admission control is reject-not-block: a push against a
// full queue throws QueueFullError immediately instead of applying
// backpressure by blocking, so an overloaded server sheds load with a typed
// error the caller can count and retry. pop_batch() implements the
// dispatch rule: wait for the first request, then dispatch when max_batch
// requests are waiting OR the oldest request has waited max_delay,
// whichever comes first.
#pragma once

#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <deque>
#include <future>
#include <mutex>
#include <stdexcept>
#include <vector>

#include "runtime/servable.h"

namespace scbnn::runtime {

/// Typed admission-control rejection: the request queue is at capacity.
/// Carries the queue's bound and the depth observed at rejection.
class QueueFullError : public std::runtime_error {
 public:
  QueueFullError(std::size_t capacity, std::size_t depth);

  /// The queue's configured bound.
  [[nodiscard]] std::size_t capacity() const noexcept { return capacity_; }
  /// Requests waiting when the push was rejected; a push is rejected only
  /// at capacity, so this equals capacity().
  [[nodiscard]] std::size_t depth() const noexcept { return depth_; }

 private:
  std::size_t capacity_;
  std::size_t depth_;
};

/// One frame waiting to be served.
struct Request {
  std::vector<float> image;  ///< one 28x28 frame, copied at enqueue
  std::promise<Prediction> result;
  ServeClock::time_point enqueued_at{};
  std::uint64_t trace_id = 0;  ///< minted by Server::submit
};

class RequestQueue {
 public:
  /// `capacity` must be >= 1 (throws std::invalid_argument otherwise).
  explicit RequestQueue(std::size_t capacity);

  RequestQueue(const RequestQueue&) = delete;
  RequestQueue& operator=(const RequestQueue&) = delete;

  /// Enqueue one request. Throws QueueFullError at capacity and
  /// std::runtime_error after close().
  void push(Request&& request);

  /// Consumer side. Blocks until at least one request is waiting, then
  /// until `max_batch` requests are waiting or the oldest has waited
  /// `max_delay` (whichever first), and pops up to max_batch requests in
  /// arrival order. After close(), drains whatever is queued immediately;
  /// an empty return means closed-and-drained — the consumer should exit.
  [[nodiscard]] std::vector<Request> pop_batch(
      int max_batch, std::chrono::microseconds max_delay);

  /// Stop admitting requests and wake the consumer. Idempotent.
  void close();

  [[nodiscard]] std::size_t size() const;
  [[nodiscard]] std::size_t capacity() const noexcept { return capacity_; }
  [[nodiscard]] bool closed() const;

 private:
  mutable std::mutex mutex_;
  std::condition_variable cv_;
  std::deque<Request> queue_;
  const std::size_t capacity_;
  bool closed_ = false;
};

}  // namespace scbnn::runtime
