// SpscRing torture tests: wrap-around correctness, full-ring backpressure,
// producer/consumer tear-down races, and the Doorbell the fleet's waiters
// park on — run with in-process threads over a ShmSegment so the exact
// shared-memory code paths execute under TSan (the fork-based fleet tests
// cannot; TSan does not support multi-threaded fork, so this file is the
// transport's sanitizer coverage).
#include "fleet/shm_ring.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <thread>
#include <vector>

namespace scbnn::fleet {
namespace {

struct Item {
  std::uint64_t value = 0;
  std::uint64_t check = 0;
};

/// A ring of `capacity` slots living in a real shared mapping.
struct RingFixture {
  explicit RingFixture(std::size_t capacity)
      : segment(SpscRing<Item>::bytes_for(capacity)),
        ring(SpscRing<Item>::attach(segment.data(), capacity,
                                    /*initialize=*/true)) {}
  ShmSegment segment;
  SpscRing<Item> ring;
};

Item make_item(std::uint64_t i) { return Item{i, ~i}; }

TEST(SpscRing, ValidCapacities) {
  EXPECT_TRUE(valid_ring_capacity(2));
  EXPECT_TRUE(valid_ring_capacity(1024));
  EXPECT_FALSE(valid_ring_capacity(0));
  EXPECT_FALSE(valid_ring_capacity(1));
  EXPECT_FALSE(valid_ring_capacity(3));
  EXPECT_FALSE(valid_ring_capacity(768));
}

TEST(SpscRing, AttachInitializesAndReattachFindsTheMagic) {
  RingFixture fx(8);
  EXPECT_TRUE(fx.ring.valid());
  EXPECT_EQ(fx.ring.capacity(), 8u);
  EXPECT_EQ(fx.ring.size(), 0u);

  // A second view over the same memory (what a forked shard does).
  SpscRing<Item> view = SpscRing<Item>::attach(fx.segment.data(), 8,
                                               /*initialize=*/false);
  EXPECT_TRUE(view.valid());
  ASSERT_TRUE(fx.ring.try_push(make_item(1)));
  EXPECT_EQ(view.size(), 1u);

  // A view with the wrong capacity is rejected by the magic check.
  SpscRing<Item> wrong = SpscRing<Item>::attach(fx.segment.data(), 16,
                                                /*initialize=*/false);
  EXPECT_FALSE(wrong.valid());
}

TEST(SpscRing, FifoThroughManyWrapArounds) {
  RingFixture fx(4);
  std::uint64_t next_out = 0;
  for (std::uint64_t i = 0; i < 1000; ++i) {
    ASSERT_TRUE(fx.ring.try_push(make_item(i)));
    if (fx.ring.full()) {
      Item out;
      while (fx.ring.try_pop(out)) {
        EXPECT_EQ(out.value, next_out);
        EXPECT_EQ(out.check, ~next_out);
        ++next_out;
      }
    }
  }
  Item out;
  while (fx.ring.try_pop(out)) EXPECT_EQ(out.value, next_out++);
  EXPECT_EQ(next_out, 1000u);
}

TEST(SpscRing, PeekReleaseBatchesPreserveOrderAcrossWrap) {
  RingFixture fx(8);
  std::uint64_t pushed = 0;
  std::uint64_t seen = 0;
  for (int round = 0; round < 100; ++round) {
    while (fx.ring.try_push(make_item(pushed))) ++pushed;
    const std::size_t n = fx.ring.size();
    ASSERT_GT(n, 0u);
    const std::size_t batch = n < 3 ? n : 3;  // partial batches wrap too
    for (std::size_t i = 0; i < batch; ++i) {
      EXPECT_EQ(fx.ring.peek(i).value, seen + i);
    }
    fx.ring.release(batch);
    seen += batch;
  }
  EXPECT_EQ(fx.ring.size(), pushed - seen);
}

TEST(SpscRing, TryPushBackpressuresWhenFull) {
  RingFixture fx(4);
  for (std::uint64_t i = 0; i < 4; ++i) {
    ASSERT_TRUE(fx.ring.try_push(make_item(i)));
  }
  EXPECT_TRUE(fx.ring.full());
  EXPECT_FALSE(fx.ring.try_push(make_item(99)));  // no overwrite, no block
  Item out;
  ASSERT_TRUE(fx.ring.try_pop(out));
  EXPECT_EQ(out.value, 0u);
  EXPECT_TRUE(fx.ring.try_push(make_item(4)));  // slot freed, push succeeds
}

TEST(SpscRing, ThreadedProducerConsumerDeliversEverythingInOrder) {
  // Tiny ring + many items: constant wrap-around and backpressure, with
  // both blocking paths (push_wait, wait_nonempty) exercised concurrently.
  // Many short rounds, because every round ends in a close(): the consumer
  // must drain the producer's last pushes even when close() lands between
  // its empty size() and its closed() check.
  constexpr int kRounds = 500;
  constexpr std::uint64_t kItems = 1000;
  for (int round = 0; round < kRounds; ++round) {
    RingFixture fx(8);
    std::thread producer([&] {
      for (std::uint64_t i = 0; i < kItems; ++i) {
        ASSERT_TRUE(fx.ring.push_wait(make_item(i)));
      }
      fx.ring.close();
    });
    std::uint64_t expect = 0;
    while (true) {
      const std::size_t n = fx.ring.wait_nonempty();
      if (n == 0) break;  // closed and drained
      for (std::size_t i = 0; i < n; ++i) {
        EXPECT_EQ(fx.ring.peek(i).value, expect + i);
        EXPECT_EQ(fx.ring.peek(i).check, ~(expect + i));
      }
      fx.ring.release(n);
      expect += n;
    }
    producer.join();
    ASSERT_EQ(expect, kItems) << "round " << round;
  }
}

TEST(SpscRing, CloseUnblocksAParkedConsumer) {
  RingFixture fx(4);
  std::atomic<bool> returned{false};
  std::thread consumer([&] {
    EXPECT_EQ(fx.ring.wait_nonempty(), 0u);  // parks; close must wake it
    returned.store(true);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_FALSE(returned.load());
  fx.ring.close();
  consumer.join();
  EXPECT_TRUE(returned.load());
}

TEST(SpscRing, CloseUnblocksAParkedProducer) {
  RingFixture fx(2);
  ASSERT_TRUE(fx.ring.try_push(make_item(0)));
  ASSERT_TRUE(fx.ring.try_push(make_item(1)));
  std::atomic<bool> rejected{false};
  std::thread producer([&] {
    // Ring is full and nobody consumes: push_wait parks until close.
    rejected.store(!fx.ring.push_wait(make_item(2)));
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  fx.ring.close();
  producer.join();
  EXPECT_TRUE(rejected.load());
}

TEST(SpscRing, ConsumerTearDownMidStreamNeverWedgesTheProducer) {
  // The coordinator-side analogue of a shard dying: the consumer stops
  // consuming at a random point and closes the ring; the producer's
  // push_wait must return false rather than park forever.
  RingFixture fx(4);
  std::atomic<std::uint64_t> produced{0};
  std::thread producer([&] {
    std::uint64_t i = 0;
    while (fx.ring.push_wait(make_item(i))) {
      ++i;
    }
    produced.store(i);
  });
  Item out;
  std::uint64_t consumed = 0;
  while (consumed < 100) {
    if (fx.ring.try_pop(out)) {
      EXPECT_EQ(out.value, consumed);
      ++consumed;
    }
  }
  fx.ring.close();  // tear down with the producer mid-flight
  producer.join();
  EXPECT_GE(produced.load(), consumed);
}

TEST(SpscRing, StaleParkedFlagsAreClearedOnReattach) {
  // A predecessor killed mid-park leaves its parked flag set; the
  // successor's reset must clear it so peers stop issuing needless wakes
  // (and the successor parks from a clean slate).
  RingFixture fx(4);
  SpscRing<Item> view = SpscRing<Item>::attach(fx.segment.data(), 4,
                                               /*initialize=*/false);
  // Simulate the dead consumer's leftover state, then the respawn path.
  view.reset_consumer_park();
  view.reset_producer_park();
  ASSERT_TRUE(fx.ring.try_push(make_item(7)));
  Item out;
  ASSERT_TRUE(view.try_pop(out));
  EXPECT_EQ(out.value, 7u);
}

TEST(SpscRing, UnreleasedSlotsSurviveForReplay) {
  // The crash-replay invariant at ring level: a consumer that peeks but is
  // killed before release leaves the slots intact; a fresh view (the
  // respawned shard) sees exactly the same unacknowledged tail.
  RingFixture fx(8);
  for (std::uint64_t i = 0; i < 5; ++i) {
    ASSERT_TRUE(fx.ring.try_push(make_item(i)));
  }
  (void)fx.ring.peek(0);
  (void)fx.ring.peek(4);  // "processing" when the crash hits — no release

  SpscRing<Item> respawned = SpscRing<Item>::attach(fx.segment.data(), 8,
                                                    /*initialize=*/false);
  ASSERT_TRUE(respawned.valid());
  EXPECT_EQ(respawned.size(), 5u);
  for (std::uint64_t i = 0; i < 5; ++i) {
    EXPECT_EQ(respawned.peek(i).value, i);
  }
}

/// A Doorbell living in a real shared mapping, like the fleet's.
struct BellFixture {
  BellFixture()
      : segment(sizeof(Doorbell)),
        bell(*new (segment.data()) Doorbell()) {}
  ShmSegment segment;
  Doorbell& bell;
};

TEST(Doorbell, OneWaiterDrainsManyRingsInPerRingOrder) {
  // The collector's shape in one process: each producer pushes into its
  // own tiny ring and rings one shared doorbell after every batch of
  // pushes, and also before it blocks on a full ring (pushes since its
  // last ring are unannounced). The one consumer parks on the doorbell
  // until any ring has data and must drain every item in per-ring order.
  constexpr int kProducers = 3;
  constexpr int kRounds = 20;
  constexpr std::uint64_t kItems = 1000;
  constexpr std::uint64_t kBatch = 5;
  for (int round = 0; round < kRounds; ++round) {
    BellFixture fx;
    std::vector<std::unique_ptr<RingFixture>> rings;
    for (int p = 0; p < kProducers; ++p) {
      rings.push_back(std::make_unique<RingFixture>(8));
    }
    std::vector<std::thread> producers;
    for (int p = 0; p < kProducers; ++p) {
      producers.emplace_back([&fx, &ring = rings[p]->ring] {
        for (std::uint64_t i = 0; i < kItems; ++i) {
          if (!ring.try_push(make_item(i))) {
            fx.bell.ring();
            ASSERT_TRUE(ring.push_wait(make_item(i)));
          }
          if ((i + 1) % kBatch == 0) fx.bell.ring();
        }
        ring.close();
        fx.bell.ring();
      });
    }

    const auto ready = [&rings] {
      bool all_closed = true;
      for (const auto& ring : rings) {
        if (ring->ring.size() > 0) return true;
        all_closed = all_closed && ring->ring.closed();
      }
      return all_closed;
    };
    std::vector<std::uint64_t> expect(kProducers, 0);
    while (true) {
      bool any = false;
      bool drained = true;
      for (int p = 0; p < kProducers; ++p) {
        SpscRing<Item>& ring = rings[p]->ring;
        // closed() before size(): a closed ring's count is final.
        const bool closed = ring.closed();
        const std::size_t n = ring.size();
        for (std::size_t i = 0; i < n; ++i) {
          EXPECT_EQ(ring.peek(i).value, expect[p] + i);
          EXPECT_EQ(ring.peek(i).check, ~(expect[p] + i));
        }
        if (n > 0) ring.release(n);
        expect[p] += n;
        any = any || n > 0;
        drained = drained && closed && n == 0;
      }
      if (drained) break;
      if (!any) fx.bell.wait(ready);
    }
    for (std::thread& producer : producers) producer.join();
    for (int p = 0; p < kProducers; ++p) {
      ASSERT_EQ(expect[p], kItems) << "round " << round << " ring " << p;
    }
  }
}

TEST(Doorbell, RingWakesAParkedWaiterBeforeTheBackstop) {
  // A waiter parked with nothing ready must be woken by ring(), not by the
  // timed park's backstop. The waiter is left parked for 1 ms first, so a
  // ring() that failed to wake it would show the rest of the backstop.
  static_assert(Doorbell::kParkNs >= 20'000'000);
  using Clock = std::chrono::steady_clock;
  BellFixture fx;
  std::vector<double> latency_ms;
  for (int trial = 0; trial < 20; ++trial) {
    std::atomic<bool> go{false};
    Clock::time_point woke;
    std::thread waiter([&] {
      fx.bell.wait([&] { return go.load(std::memory_order_acquire); });
      woke = Clock::now();
    });
    while (fx.bell.parked.load(std::memory_order_acquire) == 0) {
      std::this_thread::yield();
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
    const Clock::time_point rung = Clock::now();
    go.store(true, std::memory_order_release);
    fx.bell.ring();
    waiter.join();
    latency_ms.push_back(
        std::chrono::duration<double, std::milli>(woke - rung).count());
  }
  std::sort(latency_ms.begin(), latency_ms.end());
  EXPECT_LT(latency_ms[latency_ms.size() / 2], 10.0)
      << "min " << latency_ms.front() << " ms, max " << latency_ms.back()
      << " ms";
}

}  // namespace
}  // namespace scbnn::fleet
