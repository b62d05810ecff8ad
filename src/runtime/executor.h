// The compute executor of the serving runtime: a fork-join pool.
//
// Every pipeline rung fans its first-layer and tail batches out through
// parallel_for() on one of these — a private one, or one shared through
// RuntimeConfig::executor by every model a process serves.
//
// parallel_for's contract is load-bearing for the whole runtime:
//
//   - fn receives (job, worker) where `worker` is a slot id in
//     [0, size()). Within one parallel_for call, two jobs observing the
//     same slot never overlap in time.
//   - job -> output mapping is caller-defined and position-based, so
//     results are bit-identical at any worker count and any steal
//     schedule.
//   - the first exception thrown by any job is rethrown to the caller
//     after the fan-out quiesces; remaining unstarted work is skipped and
//     the executor stays usable.
//   - size()==1 executors run the jobs inline on the caller under slot 0,
//     and parallel_for() from inside a worker of this executor runs inline
//     under that worker's slot instead of deadlocking — nested fan-out
//     degrades to serial. So on a multi-worker executor the jobs of
//     concurrent callers never share a slot at one time, but on a
//     size()==1 executor every concurrent caller runs under slot 0 at
//     once: per-slot scratch is race-free only while one caller at a time
//     uses it (see Sharing).
//
// How it schedules:
//
//   - A fan-out allocates nothing: its state (chunk table, completion
//     countdown, error slot) lives in a fixed pool of executor-owned ForOp
//     frames. Jobs are split into at most size() contiguous chunks with a
//     deterministic home worker per chunk; idle workers steal *whole*
//     chunks by CAS on the chunk table — never single jobs — so the
//     job->output mapping (and thus every result bit) is identical at any
//     worker count and any steal schedule. Completion is a countdown: the
//     last chunk's finisher flips the op's done word and futex-wakes the
//     caller.
//   - A worker's idle round is: claim a chunk, else spin, then park on a
//     private futex word (std::atomic::wait). Callers wake exactly as many
//     workers as the fan-out has chunks — no global condvar broadcast.
//
// Sharing: any number of engines/pipelines may hold one executor through
// a std::shared_ptr (std::make_shared<Executor>(n)). N models on one
// executor never oversubscribe the machine the way N private pools would.
// parallel_for is safe for concurrent callers (each call carries its own
// chunk table and error slot). Per-slot scratch stays race-free because
// each model owns its own per-slot buffers and has one caller at a time
// (its Server's batch former): on a 1-worker executor several models'
// jobs may share slot 0 concurrently, but never one model's buffers.
#pragma once

#include <atomic>
#include <cstdint>
#include <exception>
#include <memory>
#include <mutex>
#include <shared_mutex>
#include <thread>
#include <type_traits>
#include <utility>
#include <vector>

namespace scbnn::runtime {

/// On-demand aggregate of the per-worker counters an executor maintains.
/// Plain data; a snapshot, not a live view.
struct ExecutorStats {
  unsigned workers = 0;
  std::uint64_t parallel_fors = 0;  ///< parallel_for fan-outs dispatched
  std::uint64_t chunks_run = 0;     ///< parallel_for chunks executed
  std::uint64_t steal_attempts = 0;  ///< CASes tried on non-home chunks
  std::uint64_t steals = 0;          ///< ... that won the race
  std::uint64_t parks = 0;           ///< times a worker went to sleep

  /// steals / steal_attempts (0 when no attempt was made). A low rate
  /// under load means thieves mostly lose claim races — chunks are too
  /// small or too few; a high rate with many attempts means the static
  /// assignment is imbalanced and stealing is doing real work.
  [[nodiscard]] double steal_success_rate() const noexcept {
    return steal_attempts > 0
               ? static_cast<double>(steals) / static_cast<double>(steal_attempts)
               : 0.0;
  }
};

class Executor {
 public:
  /// Hard ceiling on worker threads — far above any sane serving setup,
  /// low enough that a wild config value cannot exhaust OS resources.
  static constexpr unsigned kMaxThreads = 512;

  /// The worker count a requested `threads` value actually yields: 0 maps
  /// to std::thread::hardware_concurrency() (min 1), values above
  /// kMaxThreads are clamped. The constructor uses exactly this rule, so
  /// callers sizing per-worker state from a config need not build an
  /// executor (or re-derive the rule) to know the answer.
  [[nodiscard]] static unsigned resolve_threads(unsigned threads) noexcept;

  explicit Executor(unsigned threads = 0);
  ~Executor();

  Executor(const Executor&) = delete;
  Executor& operator=(const Executor&) = delete;

  [[nodiscard]] unsigned size() const noexcept {
    return static_cast<unsigned>(workers_.size());
  }

  /// Finish every in-flight fan-out, then join the workers. Idempotent;
  /// the destructor calls it. After shutdown, parallel_for() throws
  /// std::runtime_error instead of publishing work that would never run.
  void shutdown();

  /// Counter snapshot.
  [[nodiscard]] ExecutorStats stats() const;

  /// The allocation-free fan-out primitive: a plain function pointer plus
  /// a context pointer, so dispatching a parallel_for never constructs a
  /// std::function (whose capture list would heap-allocate past the SBO).
  using ForFn = void (*)(void* ctx, int job, unsigned worker);

  /// Run fn(ctx, job, worker) for every job in [0, jobs), blocking until
  /// all complete. See the header comment for the slot/determinism/
  /// exception contract.
  void parallel_for(int jobs, ForFn fn, void* ctx);

  /// Callable convenience: wraps any lambda/functor by reference into the
  /// ForFn + ctx shape (zero allocations — the callable lives in the
  /// caller's frame for the whole blocking call).
  template <typename F>
  void parallel_for(int jobs, F&& f) {
    using Fn = std::remove_reference_t<F>;
    parallel_for(
        jobs,
        [](void* ctx, int job, unsigned worker) {
          (*static_cast<Fn*>(ctx))(job, worker);
        },
        const_cast<void*>(static_cast<const void*>(std::addressof(f))));
  }

 private:
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
    std::atomic<std::uint32_t> sleep{0};  ///< 1 while parked (futex word)

    // Owner-written relaxed counters, aggregated by stats().
    std::atomic<std::uint64_t> chunks_run{0};
    std::atomic<std::uint64_t> steal_attempts{0};
    std::atomic<std::uint64_t> steals{0};
    std::atomic<std::uint64_t> parks{0};

    std::thread thread;
  };

  void worker_loop(unsigned slot);
  /// Claim and run one chunk of any active fan-out (home chunk first,
  /// then any other). False when none was claimable.
  bool try_run_chunk(unsigned slot);
  void run_chunk(ForOp& op, int chunk, unsigned slot);

  ForOp& acquire_op();
  void publish_op(ForOp& op, int jobs, int nchunks, ForFn fn, void* ctx);
  void wait_op(ForOp& op);

  /// Wake up to `count` parked workers (each on its private futex word).
  void wake_workers(unsigned count);

  [[nodiscard]] static std::pair<int, int> chunk_range(int jobs, int nchunks,
                                                       int chunk) noexcept;
  /// Worker slot of `this` executor the calling thread runs as, or -1.
  [[nodiscard]] int current_worker_slot() const noexcept;

  std::vector<std::unique_ptr<Worker>> workers_;
  std::vector<std::unique_ptr<ForOp>> ops_;

  /// Guards the publish-vs-shutdown handshake only: parallel_for callers
  /// hold it shared for the brief publish step; shutdown() holds it
  /// exclusively just to flip stop_. Workers never touch it.
  std::shared_mutex gate_;
  std::atomic<bool> stop_{false};

  /// Bumped (seq_cst) after a fan-out is published; a worker re-checks it
  /// between announcing sleep intent and actually parking, closing the
  /// missed-wake race without a global lock.
  std::atomic<std::uint64_t> work_epoch_{0};

  std::atomic<int> active_ops_{0};  ///< fan-outs in flight
  std::atomic<std::uint64_t> parallel_fors_{0};
  std::atomic<std::uint64_t> inline_fors_{0};
  std::atomic<int> callers_inflight_{0};  ///< external parallel_for waiters
};

}  // namespace scbnn::runtime
