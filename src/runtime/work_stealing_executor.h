// Work-stealing, topology-aware executor — the runtime's default.
//
// Architecture (vs a central-mutex pool):
//
//   - Submitted tasks flow through per-worker structures only: a worker
//     pushes/pops the bottom of its own bounded Chase-Lev deque (LIFO),
//     thieves steal from the top (FIFO); external submitters drop into a
//     per-worker mutexed inbox chosen round-robin. No queue is shared by
//     all threads, so the submit path never serializes the fleet.
//   - parallel_for() is the serving hot path and allocates nothing: the
//     fan-out state (chunk table, completion countdown, error slot) lives
//     in a fixed pool of executor-owned ForOp frames. Jobs are split into
//     at most size() contiguous chunks with a deterministic home worker
//     per chunk; idle workers steal *whole* chunks by CAS on the chunk
//     table — never single jobs — so the job->output mapping (and thus
//     every result bit) is identical at any worker count and any steal
//     schedule. Completion is a sense-free countdown barrier: the last
//     chunk's finisher flips the op's done word and futex-wakes the
//     caller.
//   - Idle workers park on a private futex word (std::atomic::wait), and
//     producers wake exactly as many workers as there is new work for —
//     no global condvar broadcast storm.
//   - Workers can optionally be pinned to cpus from the machine topology
//     (SCBNN_PIN=auto|off|compact|scatter, default off; topology.h).
//   - Chunk stealing can be disabled (SCBNN_STEAL=off) to prove bit
//     identity of results with stealing on vs off; submitted-task
//     stealing is disabled with it.
//
// Two deliberate contract details:
//   - size()==1 executors run submit() inline on the caller; the returned
//     future is already resolved.
//   - parallel_for() from inside a worker of this executor runs inline
//     under that worker's slot instead of deadlocking — nested fan-out
//     degrades to serial.
#pragma once

#include <atomic>
#include <cstdint>
#include <exception>
#include <memory>
#include <mutex>
#include <optional>
#include <shared_mutex>
#include <thread>
#include <vector>

#include "runtime/executor.h"
#include "runtime/topology.h"

namespace scbnn::runtime {

class WorkStealingExecutor final : public Executor {
 public:
  struct Options {
    unsigned threads = 0;  ///< resolved through resolve_threads()
    /// Chunk/task stealing; unset reads SCBNN_STEAL (off/0/false disable,
    /// anything else — including unset — enables).
    std::optional<bool> steal;
    /// Worker pinning; unset reads SCBNN_PIN (default off).
    std::optional<PinMode> pin;
  };

  explicit WorkStealingExecutor(unsigned threads = 0);
  explicit WorkStealingExecutor(const Options& options);
  ~WorkStealingExecutor() override;

  WorkStealingExecutor(const WorkStealingExecutor&) = delete;
  WorkStealingExecutor& operator=(const WorkStealingExecutor&) = delete;

  [[nodiscard]] unsigned size() const noexcept override {
    return static_cast<unsigned>(workers_.size());
  }
  void shutdown() override;
  std::future<void> submit(std::function<void()> task) override;
  [[nodiscard]] ExecutorStats stats() const override;

  [[nodiscard]] bool stealing_enabled() const noexcept { return steal_; }
  [[nodiscard]] PinMode pin_mode() const noexcept { return pin_mode_; }
  /// cpu each worker slot is pinned to; empty when pinning is off.
  [[nodiscard]] const std::vector<int>& pin_targets() const noexcept {
    return pin_plan_;
  }

 protected:
  void parallel_for_impl(int jobs, ForFn fn, void* ctx) override;

 private:
  /// One queued submit() task; heap-allocated per submit (the rare path —
  /// fan-outs never touch this).
  struct TaskNode {
    std::packaged_task<void()> task;
  };

  /// Single-owner bounded Chase-Lev deque of TaskNode*. The owner worker
  /// pushes and pops at the bottom; any thief CASes the top. Lock-free;
  /// no standalone fences (seq_cst on the bottom/top handshake instead)
  /// so ThreadSanitizer models every ordering it relies on.
  struct StealDeque {
    static constexpr std::size_t kCapacity = 1024;  // power of two
    static constexpr std::size_t kMask = kCapacity - 1;

    std::atomic<std::int64_t> top{0};
    std::atomic<std::int64_t> bottom{0};
    std::vector<std::atomic<TaskNode*>> slots{kCapacity};

    /// Owner only. False when full (caller falls back to the inbox).
    bool push_bottom(TaskNode* node) noexcept;
    /// Owner only; nullptr when empty.
    TaskNode* pop_bottom() noexcept;
    /// Any thread; nullptr when empty or the claim race was lost.
    TaskNode* steal_top() noexcept;
    [[nodiscard]] std::size_t depth() const noexcept;
  };

  /// One parallel_for fan-out in flight. Pooled in ops_ and recycled —
  /// never freed while the executor lives, so a worker holding a stale
  /// pointer can always safely read it: every field a worker dereferences
  /// is written before the chunk_state reset it claim-CASes against, so
  /// a successful claim always observes the fields of the generation it
  /// claimed into.
  struct alignas(64) ForOp {
    std::atomic<bool> in_use{false};  ///< caller-side slot reservation
    std::atomic<bool> active{false};  ///< visible-to-workers flag

    std::atomic<ForFn> fn{nullptr};
    std::atomic<void*> ctx{nullptr};
    std::atomic<int> jobs{0};
    std::atomic<int> nchunks{0};

    /// chunk_state[c]: 0 = unclaimed, 1 = claimed. Sized to the worker
    /// count at construction.
    std::unique_ptr<std::atomic<std::uint8_t>[]> chunk_state;
    std::atomic<int> remaining{0};  ///< chunks not yet finished
    std::atomic<std::uint32_t> done{0};  ///< caller's futex word

    std::atomic<bool> failed{false};
    std::mutex error_mutex;
    std::exception_ptr error;
  };

  struct alignas(64) Worker {
    StealDeque deque;
    std::mutex inbox_mutex;
    std::vector<TaskNode*> inbox;  ///< FIFO: drained front-first
    std::atomic<std::uint32_t> sleep{0};  ///< 1 while parked (futex word)

    // Owner-written relaxed counters, aggregated by stats().
    std::atomic<std::uint64_t> tasks_run{0};
    std::atomic<std::uint64_t> chunks_run{0};
    std::atomic<std::uint64_t> steal_attempts{0};
    std::atomic<std::uint64_t> steals{0};
    std::atomic<std::uint64_t> parks{0};
    std::atomic<std::size_t> queue_high_water{0};

    std::thread thread;
  };

  void worker_loop(unsigned slot);
  /// One scheduling decision: run a chunk, an own task, an inbox task, or
  /// a stolen task. False when no work was found anywhere.
  bool run_one(unsigned slot);
  bool try_run_chunk(unsigned slot);
  void run_chunk(ForOp& op, int chunk, unsigned slot);
  bool run_own_task(unsigned slot);
  bool run_inbox_task(unsigned slot);
  bool run_stolen_task(unsigned slot);
  void run_task(TaskNode* node, unsigned slot);

  ForOp& acquire_op();
  void publish_op(ForOp& op, int jobs, int nchunks, ForFn fn, void* ctx);
  void wait_op(ForOp& op);

  void enqueue_task(TaskNode* node);
  /// Wake up to `count` parked workers (each on its private futex word).
  void wake_workers(unsigned count);
  void note_queue_depth(unsigned slot);

  [[nodiscard]] static std::pair<int, int> chunk_range(int jobs, int nchunks,
                                                       int chunk) noexcept;
  /// Worker slot of `this` executor the calling thread runs as, or -1.
  [[nodiscard]] int current_worker_slot() const noexcept;

  bool steal_ = true;
  PinMode pin_mode_ = PinMode::kOff;
  std::vector<int> pin_plan_;

  std::vector<std::unique_ptr<Worker>> workers_;
  std::vector<std::unique_ptr<ForOp>> ops_;

  /// Guards the publish-vs-shutdown handshake only: submitters and
  /// parallel_for callers hold it shared for the brief enqueue/activate
  /// step; shutdown() holds it exclusively just to flip stop_. Workers
  /// never touch it.
  std::shared_mutex gate_;
  std::atomic<bool> stop_{false};

  /// Bumped (seq_cst) after any work is published; a worker re-checks it
  /// between announcing sleep intent and actually parking, closing the
  /// missed-wake race without a global lock.
  std::atomic<std::uint64_t> work_epoch_{0};

  std::atomic<std::int64_t> pending_tasks_{0};  ///< queued, not yet run
  std::atomic<int> active_ops_{0};              ///< fan-outs in flight
  std::atomic<std::uint64_t> parallel_fors_{0};
  std::atomic<std::uint64_t> inline_fors_{0};
  std::atomic<unsigned> next_inbox_{0};  ///< round-robin submit target
  std::atomic<int> callers_inflight_{0};  ///< external parallel_for waiters
};

}  // namespace scbnn::runtime
