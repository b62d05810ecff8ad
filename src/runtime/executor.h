// The compute-executor contract of the serving runtime.
//
// Every pipeline rung and router model fans its first-layer and tail
// batches out through one of these. The implementation is
// WorkStealingExecutor (work_stealing_executor.h): per-worker Chase-Lev
// deques, lock-free parallel_for chunk claiming, futex parking, optional
// topology-aware pinning — the executor behind make_shared_executor() and
// RuntimeConfig::resolve_executor(). Its steal-off mode is the scaling
// benches' control.
//
// parallel_for's contract is load-bearing for the whole runtime:
//
//   - fn receives (job, worker) where `worker` is a stable slot id in
//     [0, size()): jobs run only on executor workers (plus the documented
//     single-worker/nested inline paths), and two jobs observing the same
//     slot never overlap in time — per-slot scratch buffers never race.
//   - job -> output mapping is caller-defined and position-based, so
//     results are bit-identical at any worker count and any steal
//     schedule.
//   - the first exception thrown by any job is rethrown to the caller
//     after the fan-out quiesces; remaining unstarted work is skipped and
//     the executor stays usable.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <future>
#include <memory>
#include <type_traits>

namespace scbnn::runtime {

/// On-demand aggregate of the per-worker counters an executor maintains.
/// Plain data; a snapshot, not a live view.
struct ExecutorStats {
  unsigned workers = 0;
  std::uint64_t tasks_run = 0;      ///< submitted tasks executed
  std::uint64_t parallel_fors = 0;  ///< parallel_for fan-outs dispatched
  std::uint64_t chunks_run = 0;     ///< parallel_for chunks executed
  std::uint64_t steal_attempts = 0;  ///< CASes tried on non-home work
  std::uint64_t steals = 0;          ///< ... that won the race
  std::uint64_t parks = 0;           ///< times a worker went to sleep
  /// Deepest any single worker's queue (deque + inbox) ever got.
  std::size_t queue_high_water = 0;

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
  /// kMaxThreads are clamped. Constructors use exactly this rule, so
  /// callers sizing per-worker state from a config need not build an
  /// executor (or re-derive the rule) to know the answer.
  [[nodiscard]] static unsigned resolve_threads(unsigned threads) noexcept;

  virtual ~Executor() = default;

  [[nodiscard]] virtual unsigned size() const noexcept = 0;

  /// Drain every queued task and in-flight fan-out, then join the
  /// workers. Idempotent; destructors call it. After shutdown, submit()
  /// and parallel_for() throw std::runtime_error instead of enqueueing
  /// work that would never run.
  virtual void shutdown() = 0;

  /// Enqueue one fire-and-forget task. The returned future rethrows
  /// whatever the task throws. Throws std::runtime_error if the executor
  /// is shutting down.
  virtual std::future<void> submit(std::function<void()> task) = 0;

  /// Counter snapshot. The base default reports worker count only.
  [[nodiscard]] virtual ExecutorStats stats() const {
    ExecutorStats s;
    s.workers = size();
    return s;
  }

  /// The allocation-free fan-out primitive: a plain function pointer plus
  /// a context pointer, so dispatching a parallel_for never constructs a
  /// std::function (whose capture list would heap-allocate past the SBO).
  using ForFn = void (*)(void* ctx, int job, unsigned worker);

  /// Run fn(ctx, job, worker) for every job in [0, jobs), blocking until
  /// all complete. See the header comment for the slot/determinism/
  /// exception contract.
  void parallel_for(int jobs, ForFn fn, void* ctx) {
    parallel_for_impl(jobs, fn, ctx);
  }

  /// Callable convenience: wraps any lambda/functor by reference into the
  /// ForFn + ctx shape (zero allocations — the callable lives in the
  /// caller's frame for the whole blocking call).
  template <typename F>
  void parallel_for(int jobs, F&& f) {
    using Fn = std::remove_reference_t<F>;
    parallel_for_impl(
        jobs,
        [](void* ctx, int job, unsigned worker) {
          (*static_cast<Fn*>(ctx))(job, worker);
        },
        const_cast<void*>(static_cast<const void*>(std::addressof(f))));
  }

 protected:
  virtual void parallel_for_impl(int jobs, ForFn fn, void* ctx) = 0;
};

/// An executor intended to be shared by several engines/pipelines: pass
/// the result as RuntimeConfig::executor to every model that should
/// compute on the same workers. N models on one executor never
/// oversubscribe the machine the way N private pools would. parallel_for
/// is safe for concurrent callers (each call carries its own chunk table
/// and error slot), and worker slot ids stay unique at any instant, so
/// per-model per-slot scratch never races.
///
/// Returns a WorkStealingExecutor; SCBNN_STEAL / SCBNN_PIN apply.
[[nodiscard]] std::shared_ptr<Executor> make_shared_executor(
    unsigned threads = 0);

}  // namespace scbnn::runtime
