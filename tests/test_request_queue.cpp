// RequestQueue edge cases: typed rejection carrying the observed depth,
// close() waking a consumer parked against a full-but-small batch deadline,
// post-close admission, and FIFO ordering under concurrent producers.
#include "runtime/request_queue.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <thread>
#include <vector>

namespace scbnn::runtime {
namespace {

Request make_request(float tag0, float tag1) {
  Request request;
  request.image.assign(2, 0.0f);
  request.image[0] = tag0;
  request.image[1] = tag1;
  request.enqueued_at = ServeClock::now();
  return request;
}

TEST(RequestQueue, QueueFullErrorCarriesCapacityAndDepth) {
  RequestQueue queue(3);
  for (int i = 0; i < 3; ++i) queue.push(make_request(0, i));
  try {
    queue.push(make_request(0, 3));
    FAIL() << "push into a full queue must throw QueueFullError";
  } catch (const QueueFullError& e) {
    EXPECT_EQ(e.capacity(), 3u);
    EXPECT_EQ(e.depth(), 3u);
    EXPECT_NE(std::string(e.what()).find("capacity 3"), std::string::npos);
    EXPECT_NE(std::string(e.what()).find("depth 3"), std::string::npos);
  }
}

TEST(RequestQueue, CloseWakesAConsumerWaitingOnAFullQueue) {
  // The queue is full but below max_batch, so the consumer sits in the
  // deadline wait hoping for companions that can never be admitted.
  // close() must wake it immediately — not after the 10s delay expires.
  RequestQueue queue(2);
  queue.push(make_request(0, 0));
  queue.push(make_request(0, 1));

  std::atomic<bool> popped{false};
  std::vector<Request> batch;
  std::thread consumer([&] {
    batch = queue.pop_batch(/*max_batch=*/8,
                            std::chrono::microseconds(10'000'000));
    popped.store(true);
  });

  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_FALSE(popped.load());  // parked on the deadline wait

  const auto t0 = ServeClock::now();
  queue.close();
  consumer.join();
  const double woke_ms = ms_between(t0, ServeClock::now());

  EXPECT_TRUE(popped.load());
  EXPECT_EQ(batch.size(), 2u);  // the backlog is drained, not lost
  EXPECT_LT(woke_ms, 5000.0);   // woken by close(), not the 10s deadline
}

TEST(RequestQueue, CloseWhileFullRejectsProducersAndDrains) {
  RequestQueue queue(2);
  queue.push(make_request(0, 0));
  queue.push(make_request(0, 1));
  queue.close();

  // After close a producer gets the closed error even though the queue is
  // also full — closed wins, the request can never be served.
  EXPECT_THROW(queue.push(make_request(0, 2)), std::runtime_error);

  // The consumer still drains the backlog, then sees closed-and-drained.
  const std::vector<Request> batch =
      queue.pop_batch(8, std::chrono::microseconds(0));
  EXPECT_EQ(batch.size(), 2u);
  EXPECT_TRUE(queue.pop_batch(8, std::chrono::microseconds(0)).empty());
}

TEST(RequestQueue, ConcurrentProducersKeepPerProducerFifoOrder) {
  constexpr int kProducers = 4;
  constexpr int kPerProducer = 64;
  RequestQueue queue(kProducers * kPerProducer);

  std::vector<std::thread> producers;
  producers.reserve(kProducers);
  for (int p = 0; p < kProducers; ++p) {
    producers.emplace_back([&queue, p] {
      for (int i = 0; i < kPerProducer; ++i) {
        queue.push(make_request(static_cast<float>(p),
                                static_cast<float>(i)));
      }
    });
  }
  for (std::thread& t : producers) t.join();

  // Drain in batches; arrival order within each producer must be intact
  // (the queue is MPSC FIFO: interleaving across producers is free, but a
  // producer's own requests never reorder).
  std::vector<int> next_seq(kProducers, 0);
  int drained = 0;
  while (drained < kProducers * kPerProducer) {
    // Everything is already queued, so each pop returns immediately.
    const std::vector<Request> batch =
        queue.pop_batch(7, std::chrono::microseconds(0));
    ASSERT_FALSE(batch.empty());
    for (const Request& r : batch) {
      const int p = static_cast<int>(r.image[0]);
      const int seq = static_cast<int>(r.image[1]);
      EXPECT_EQ(seq, next_seq[static_cast<std::size_t>(p)]++)
          << "producer " << p << " reordered";
      ++drained;
    }
  }
  EXPECT_EQ(drained, kProducers * kPerProducer);
  EXPECT_EQ(queue.size(), 0u);
}

TEST(RequestQueue, ProducersBlockedOnlyByDesignNeverByPush) {
  // push() is reject-not-block: a full queue answers in bounded time even
  // with no consumer at all.
  RequestQueue queue(1);
  queue.push(make_request(0, 0));
  const auto t0 = ServeClock::now();
  EXPECT_THROW(queue.push(make_request(0, 1)), QueueFullError);
  EXPECT_LT(ms_between(t0, ServeClock::now()), 1000.0);
}

}  // namespace
}  // namespace scbnn::runtime
