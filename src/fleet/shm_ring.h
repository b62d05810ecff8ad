// Lock-free SPSC rings over shared memory: the fleet's transport.
//
// One coordinator process talks to each shard process over a pair of rings
// living in a MAP_SHARED|MAP_ANONYMOUS segment created before fork():
// requests flow coordinator -> shard, responses shard -> coordinator. Each
// ring is strictly single-producer/single-consumer, so the hot path is two
// atomic loads and one atomic store per transfer — no locks, no syscalls:
//
//   - head (consumer cursor) and tail (producer cursor) are free-running
//     64-bit counters on their own cache lines; slot index = counter &
//     (capacity - 1). Producer publishes a slot with a release store of
//     tail; consumer frees space with a release store of head.
//   - blocking is event-driven: a side that finds nothing to do spins
//     briefly, then parks on a futex Doorbell (cross-process futexes, so
//     no pthread state is shared between processes) that the other side
//     rings on every push, release and close. ring() only issues the
//     FUTEX_WAKE syscall when the parked flag says someone is actually
//     sleeping — an uncontended push or pop never enters the kernel. Every
//     real wake is explicit; the timed park (20 ms) is only a backstop, so
//     a lost wakeup (or a peer killed mid-handshake) degrades to a bounded
//     stall, never a hang.
//
// Crash-tolerance is structural: there are no locks to leak. The consumer
// side advances head only after the work a slot describes is fully
// committed (the shard pushes every response of a batch before releasing
// the requests), so when a shard is killed -9 the unacknowledged tail of
// its request ring is still there — the respawned process re-attaches and
// replays it. At-least-once delivery; the coordinator dedupes by sequence.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <new>
#include <type_traits>

namespace scbnn::fleet {

namespace detail {

/// Timed wait on `*word == expected` (cross-process futex on Linux; a
/// short sleep elsewhere). Returns on wake, value change, or timeout.
void futex_wait(std::atomic<std::uint32_t>* word, std::uint32_t expected,
                long timeout_ns);
/// Wake every waiter parked on `word`.
void futex_wake_all(std::atomic<std::uint32_t>* word);
/// Pause hint inside spin loops.
void cpu_relax();

}  // namespace detail

/// A futex doorbell in shared memory: the one wait/wake handshake of the
/// fleet. A producer publishes its state change (a push, a release, a
/// close, a batch of responses) and then calls ring(); a waiter calls
/// wait(ready) with a predicate over that state. Any number of threads or
/// processes may ring; at most one may wait at a time (the parked flag is
/// a single word).
struct alignas(64) Doorbell {
  /// Spins before a waiter parks (~2 us): long enough to ride out a
  /// handoff between two running threads (at 64, a tiny ring's producer
  /// and consumer fall into a park/wake on most handoffs), short enough
  /// not to burn a core through an idle gap.
  static constexpr int kSpinIters = 128;
  /// Park timeout. Only a backstop for a lost wake: every real wake is a
  /// ring().
  static constexpr long kParkNs = 20'000'000;

  std::atomic<std::uint32_t> bell{0};    ///< bumped by every ring()
  std::atomic<std::uint32_t> parked{0};  ///< 1 while a waiter may sleep

  /// Announce a state change published before the call. Enters the kernel
  /// only when a waiter is parked.
  void ring() noexcept {
    bell.fetch_add(1, std::memory_order_seq_cst);
    if (parked.load(std::memory_order_seq_cst) != 0) {
      detail::futex_wake_all(&bell);
    }
  }

  /// Return once `ready()` is true: spin, then park. The handshake reads
  /// the bell, re-checks, sets the parked flag, re-checks, and only then
  /// sleeps on the bell value it read — a ringer either sees the flag and
  /// wakes us, or bumped the bell first and the futex refuses to sleep.
  template <typename Ready>
  void wait(Ready&& ready) noexcept {
    for (int spin = 0; spin < kSpinIters; ++spin) {
      if (ready()) return;
      detail::cpu_relax();
    }
    while (true) {
      const std::uint32_t seen = bell.load(std::memory_order_acquire);
      if (ready()) return;
      parked.store(1, std::memory_order_seq_cst);
      if (ready()) {
        parked.store(0, std::memory_order_seq_cst);
        return;
      }
      detail::futex_wait(&bell, seen, kParkNs);
      parked.store(0, std::memory_order_seq_cst);
    }
  }

  /// Clear a parked flag a dead waiter left set, so ringers stop issuing
  /// needless wakes.
  void reset() noexcept { parked.store(0, std::memory_order_seq_cst); }
};

/// Shared control block of one SPSC ring. Head, tail, and the doorbells
/// live on separate cache lines so the producer and consumer never
/// false-share.
struct alignas(64) RingControl {
  static constexpr std::uint64_t kMagic = 0x5CB1F1EE7'0000001ULL;

  alignas(64) std::atomic<std::uint64_t> tail{0};  ///< producer cursor
  alignas(64) std::atomic<std::uint64_t> head{0};  ///< consumer cursor
  Doorbell data;   ///< rung on every push; the consumer parks on it
  Doorbell space;  ///< rung on every release; the producer parks on it
  alignas(64) std::atomic<std::uint32_t> closed{0};
  std::uint32_t capacity = 0;
  std::uint64_t magic = 0;
};

/// Non-owning SPSC ring view over shared memory laid out as
/// [RingControl][T x capacity]. The memory (typically a ShmSegment) must
/// outlive every view; any number of processes may hold views, but at most
/// one may push and one may pop at a time.
template <typename T>
class SpscRing {
  static_assert(std::is_trivially_copyable_v<T>,
                "ring slots cross process boundaries");

 public:
  SpscRing() = default;

  /// Bytes a ring of `capacity` slots needs. Capacity must be a power of
  /// two >= 2.
  [[nodiscard]] static std::size_t bytes_for(std::size_t capacity) {
    return sizeof(RingControl) + capacity * sizeof(T);
  }

  /// Create a ring in `memory` (zero-initialized shared mapping), or
  /// re-attach to one already initialized there. `initialize` must be true
  /// exactly once per segment, before any other process attaches.
  [[nodiscard]] static SpscRing attach(void* memory, std::size_t capacity,
                                       bool initialize) {
    SpscRing ring;
    ring.ctl_ = static_cast<RingControl*>(memory);
    ring.slots_ = reinterpret_cast<T*>(static_cast<char*>(memory) +
                                       sizeof(RingControl));
    ring.mask_ = capacity - 1;
    if (initialize) {
      new (ring.ctl_) RingControl();
      ring.ctl_->capacity = static_cast<std::uint32_t>(capacity);
      ring.ctl_->magic = RingControl::kMagic;
    }
    return ring;
  }

  [[nodiscard]] bool valid() const noexcept {
    return ctl_ != nullptr && ctl_->magic == RingControl::kMagic &&
           ctl_->capacity == mask_ + 1;
  }
  [[nodiscard]] std::size_t capacity() const noexcept { return mask_ + 1; }

  /// Slots currently readable (consumer view; producer may be adding).
  [[nodiscard]] std::size_t size() const noexcept {
    return static_cast<std::size_t>(
        ctl_->tail.load(std::memory_order_acquire) -
        ctl_->head.load(std::memory_order_acquire));
  }
  [[nodiscard]] bool full() const noexcept { return size() >= capacity(); }

  void close() noexcept {
    ctl_->closed.store(1, std::memory_order_release);
    ctl_->data.ring();
    ctl_->space.ring();
  }
  [[nodiscard]] bool closed() const noexcept {
    return ctl_->closed.load(std::memory_order_acquire) != 0;
  }

  /// A freshly (re)attached endpoint clears the parked flag its dead
  /// predecessor may have left set, so the peer never skips a wake.
  void reset_consumer_park() noexcept { ctl_->data.reset(); }
  void reset_producer_park() noexcept { ctl_->space.reset(); }

  // ------------------------------------------------------------- producer

  /// Publish one slot; false when the ring is full or closed. Never
  /// blocks, never syscalls unless the consumer is parked.
  bool try_push(const T& slot) noexcept {
    if (closed()) return false;
    const std::uint64_t tail = ctl_->tail.load(std::memory_order_relaxed);
    const std::uint64_t head = ctl_->head.load(std::memory_order_acquire);
    if (tail - head >= capacity()) return false;
    std::memcpy(&slots_[tail & mask_], &slot, sizeof(T));
    ctl_->tail.store(tail + 1, std::memory_order_release);
    ctl_->data.ring();
    return true;
  }

  /// Push, waiting for space (spin, then park on the space doorbell).
  /// False when the ring closes before space appears.
  bool push_wait(const T& slot) noexcept {
    bool pushed = false;
    ctl_->space.wait([&] {
      pushed = try_push(slot);
      return pushed || closed();
    });
    return pushed;
  }

  // ------------------------------------------------------------- consumer

  /// Read-only view of the i-th unconsumed slot (i < size()).
  [[nodiscard]] const T& peek(std::size_t i) const noexcept {
    const std::uint64_t head = ctl_->head.load(std::memory_order_relaxed);
    return slots_[(head + i) & mask_];
  }

  /// Consume the first `k` slots (k <= size()): frees the space for the
  /// producer. The caller must be done with every peeked reference.
  void release(std::size_t k) noexcept {
    const std::uint64_t head = ctl_->head.load(std::memory_order_relaxed);
    ctl_->head.store(head + k, std::memory_order_release);
    ctl_->space.ring();
  }

  /// Copy-and-consume one slot; false when the ring is empty.
  bool try_pop(T& out) noexcept {
    if (size() == 0) return false;
    std::memcpy(&out, &peek(0), sizeof(T));
    release(1);
    return true;
  }

  /// Wait until at least one slot is readable (spin, then park on the
  /// data doorbell). Returns the number readable; 0 only when the ring is
  /// closed and fully drained. The producer may push its last items
  /// between an empty size() and close(), so after seeing closed() the
  /// count is read again — the close flag orders after every push before
  /// it.
  std::size_t wait_nonempty() noexcept {
    std::size_t n = 0;
    ctl_->data.wait([&] {
      n = size();
      return n > 0 || closed();
    });
    return n > 0 ? n : size();
  }

 private:
  RingControl* ctl_ = nullptr;
  T* slots_ = nullptr;
  std::size_t mask_ = 0;
};

/// Owning anonymous shared mapping (MAP_SHARED | MAP_ANONYMOUS): created by
/// the coordinator before fork(), inherited by every shard child, unmapped
/// when the coordinator drops it. Zero-filled by the kernel.
class ShmSegment {
 public:
  explicit ShmSegment(std::size_t bytes);
  ~ShmSegment();

  ShmSegment(ShmSegment&& other) noexcept;
  ShmSegment& operator=(ShmSegment&& other) noexcept;
  ShmSegment(const ShmSegment&) = delete;
  ShmSegment& operator=(const ShmSegment&) = delete;

  [[nodiscard]] void* data() const noexcept { return data_; }
  [[nodiscard]] std::size_t size() const noexcept { return size_; }

 private:
  void* data_ = nullptr;
  std::size_t size_ = 0;
};

/// True when `capacity` is a usable ring capacity (power of two >= 2).
[[nodiscard]] constexpr bool valid_ring_capacity(std::size_t capacity) {
  return capacity >= 2 && (capacity & (capacity - 1)) == 0;
}

}  // namespace scbnn::fleet
