#include "runtime/executor.h"

#include <algorithm>
#include <cstdlib>
#include <cstring>
#include <stdexcept>

#include "obs/trace.h"

namespace scbnn::runtime {

namespace {

/// Spins before a worker parks / a fan-out caller futex-waits: long
/// enough to ride out a chunk handoff, short enough not to burn a core
/// when the executor is genuinely idle.
constexpr int kSpinRounds = 64;

bool steal_enabled_from_env() {
  const char* value = std::getenv("SCBNN_STEAL");
  if (value == nullptr || *value == '\0') return true;
  return !(std::strcmp(value, "off") == 0 || std::strcmp(value, "0") == 0 ||
           std::strcmp(value, "false") == 0);
}

void cpu_relax() noexcept {
#if defined(__x86_64__) || defined(__i386__)
  __builtin_ia32_pause();
#else
  std::this_thread::yield();
#endif
}

/// Which executor (and slot) the calling thread works for, if any —
/// lets nested parallel_for degrade to inline.
struct WorkerIdentity {
  const void* executor = nullptr;
  unsigned slot = 0;
};
thread_local WorkerIdentity tls_worker;

}  // namespace

// ------------------------------------------------------------ construction

unsigned Executor::resolve_threads(unsigned threads) noexcept {
  if (threads == 0) {
    threads = std::thread::hardware_concurrency();
    if (threads == 0) threads = 1;
  }
  return std::min(threads, kMaxThreads);
}

Executor::Executor(unsigned threads)
    : Executor(Options{threads, std::nullopt, std::nullopt}) {}

Executor::Executor(const Options& options) {
  const unsigned threads = resolve_threads(options.threads);
  steal_ = options.steal.value_or(steal_enabled_from_env());
  pin_mode_ = options.pin.value_or(pin_mode_from_env());
  if (pin_mode_ != PinMode::kOff) {
    pin_plan_ = pin_plan(read_cpu_topology(), threads, pin_mode_);
  }

  // Enough fan-out frames that every worker could be inside a nested
  // dispatch and a healthy number of external callers can overlap before
  // anyone has to wait for a frame to free up.
  const std::size_t op_slots = static_cast<std::size_t>(threads) + 16;
  ops_.reserve(op_slots);
  for (std::size_t i = 0; i < op_slots; ++i) {
    auto op = std::make_unique<ForOp>();
    op->chunk_state =
        std::make_unique<std::atomic<std::uint8_t>[]>(threads);
    for (unsigned c = 0; c < threads; ++c) {
      op->chunk_state[c].store(1, std::memory_order_relaxed);  // nothing to claim
    }
    ops_.push_back(std::move(op));
  }

  workers_.reserve(threads);
  for (unsigned slot = 0; slot < threads; ++slot) {
    workers_.push_back(std::make_unique<Worker>());
  }
  for (unsigned slot = 0; slot < threads; ++slot) {
    workers_[slot]->thread = std::thread([this, slot] { worker_loop(slot); });
  }
}

Executor::~Executor() {
  shutdown();
  // An external parallel_for caller may still be unwinding through
  // wait_op after the workers finished its chunks; its op frame and the
  // callers_inflight_ counter live here, so hold destruction until it
  // has fully left.
  while (callers_inflight_.load(std::memory_order_acquire) > 0) {
    std::this_thread::yield();
  }
}

void Executor::shutdown() {
  {
    std::unique_lock<std::shared_mutex> gate(gate_);
    stop_.store(true, std::memory_order_seq_cst);
  }
  work_epoch_.fetch_add(1, std::memory_order_seq_cst);
  wake_workers(size());
  for (const auto& worker : workers_) {
    if (worker->thread.joinable()) worker->thread.join();
  }
}

// ------------------------------------------------------------- worker loop

void Executor::worker_loop(unsigned slot) {
  tls_worker = {this, slot};
  if (!pin_plan_.empty()) {
    (void)pin_current_thread(pin_plan_[slot]);
  }
  Worker& me = *workers_[slot];

  int idle_rounds = 0;
  for (;;) {
    const std::uint64_t epoch = work_epoch_.load(std::memory_order_seq_cst);
    if (try_run_chunk(slot)) {
      idle_rounds = 0;
      continue;
    }
    if (stop_.load(std::memory_order_seq_cst)) {
      // Drain-then-exit: leave only once no fan-out is mid-flight (its
      // chunks may still need this thread as a thief). Spin-yield instead
      // of parking — the count is about to hit zero.
      if (active_ops_.load(std::memory_order_seq_cst) == 0) return;
      std::this_thread::yield();
      continue;
    }
    if (++idle_rounds < kSpinRounds) {
      cpu_relax();
      continue;
    }
    // Park: announce intent, then re-check for work published since the
    // epoch read above — a caller either sees sleep==1 and notifies, or
    // bumped the epoch before we read it here. Either way no lost wake.
    me.sleep.store(1, std::memory_order_seq_cst);
    if (work_epoch_.load(std::memory_order_seq_cst) != epoch ||
        stop_.load(std::memory_order_seq_cst)) {
      me.sleep.store(0, std::memory_order_relaxed);
      idle_rounds = 0;
      continue;
    }
    me.parks.fetch_add(1, std::memory_order_relaxed);
    me.sleep.wait(1, std::memory_order_acquire);
    me.sleep.store(0, std::memory_order_relaxed);
    idle_rounds = 0;
  }
}

std::pair<int, int> Executor::chunk_range(int jobs, int nchunks,
                                          int chunk) noexcept {
  const int base = jobs / nchunks;
  const int rem = jobs % nchunks;
  const int first = chunk * base + std::min(chunk, rem);
  const int count = base + (chunk < rem ? 1 : 0);
  return {first, first + count};
}

bool Executor::try_run_chunk(unsigned slot) {
  Worker& me = *workers_[slot];
  for (auto& op_ptr : ops_) {
    ForOp& op = *op_ptr;
    if (!op.active.load(std::memory_order_acquire)) continue;
    const int nchunks = op.nchunks.load(std::memory_order_relaxed);
    if (nchunks <= 0) continue;  // stale scan of a recycled frame

    // Home chunk first: chunk c's home is worker c, so with stealing off
    // the assignment is purely static.
    if (static_cast<int>(slot) < nchunks) {
      std::uint8_t expect = 0;
      if (op.chunk_state[slot].load(std::memory_order_relaxed) == 0 &&
          op.chunk_state[slot].compare_exchange_strong(
              expect, 1, std::memory_order_acq_rel,
              std::memory_order_relaxed)) {
        run_chunk(op, static_cast<int>(slot), slot);
        return true;
      }
    }
    if (!steal_) continue;
    for (int offset = 1; offset < nchunks; ++offset) {
      const int c = (static_cast<int>(slot) + offset) % nchunks;
      if (op.chunk_state[c].load(std::memory_order_relaxed) != 0) continue;
      me.steal_attempts.fetch_add(1, std::memory_order_relaxed);
      std::uint8_t expect = 0;
      if (op.chunk_state[c].compare_exchange_strong(
              expect, 1, std::memory_order_acq_rel,
              std::memory_order_relaxed)) {
        me.steals.fetch_add(1, std::memory_order_relaxed);
        run_chunk(op, c, slot);
        return true;
      }
    }
  }
  return false;
}

void Executor::run_chunk(ForOp& op, int chunk, unsigned slot) {
  // Field reads are ordered after the claim CAS (acquire), which pairs
  // with the release chunk-state reset in publish_op — so even a worker
  // that scanned a stale generation reads the fields of the generation
  // it actually claimed into.
  const ForFn fn = op.fn.load(std::memory_order_relaxed);
  void* ctx = op.ctx.load(std::memory_order_relaxed);
  const int jobs = op.jobs.load(std::memory_order_relaxed);
  const int nchunks = op.nchunks.load(std::memory_order_relaxed);
  const auto [first, last] = chunk_range(jobs, nchunks, chunk);

  if (!op.failed.load(std::memory_order_relaxed)) {
    try {
      for (int job = first; job < last; ++job) {
        if (op.failed.load(std::memory_order_relaxed)) break;
        fn(ctx, job, slot);
      }
    } catch (...) {
      {
        std::lock_guard<std::mutex> lock(op.error_mutex);
        if (!op.error) op.error = std::current_exception();
      }
      op.failed.store(true, std::memory_order_release);
    }
  }
  workers_[slot]->chunks_run.fetch_add(1, std::memory_order_relaxed);

  if (op.remaining.fetch_sub(1, std::memory_order_acq_rel) == 1) {
    op.done.store(1, std::memory_order_release);
    op.done.notify_all();
  }
}

// ------------------------------------------------------------ parallel_for

void Executor::parallel_for(int jobs, ForFn fn, void* ctx) {
  if (jobs <= 0) return;
  // One span per fan-out on the calling thread, keyed to the ambient trace
  // id set by the batch owner; unsampled calls pay two relaxed loads.
  obs::SpanScope span(obs::SpanName::kParallelFor, obs::ambient_trace_id(),
                      static_cast<std::uint64_t>(jobs), size());

  const int self = current_worker_slot();
  if (size() == 1 || self >= 0) {
    // Single-worker executors run inline on the caller under slot 0 (no
    // other worker could be computing on that scratch slot while the
    // caller blocks here), and nested fan-out from inside a worker runs
    // inline under that worker's own slot — the worker cannot overlap
    // with itself, so the slot contract holds and nothing deadlocks.
    if (stop_.load(std::memory_order_seq_cst)) {
      throw std::runtime_error(
          "Executor::parallel_for: executor is shut down");
    }
    const unsigned slot = self >= 0 ? static_cast<unsigned>(self) : 0;
    inline_fors_.fetch_add(1, std::memory_order_relaxed);
    for (int job = 0; job < jobs; ++job) fn(ctx, job, slot);
    return;
  }

  callers_inflight_.fetch_add(1, std::memory_order_acq_rel);
  struct CallerGuard {
    std::atomic<int>& counter;
    ~CallerGuard() { counter.fetch_sub(1, std::memory_order_acq_rel); }
  } caller_guard{callers_inflight_};

  ForOp& op = acquire_op();
  const int nchunks = std::min(static_cast<int>(size()), jobs);
  {
    std::shared_lock<std::shared_mutex> gate(gate_);
    if (stop_.load(std::memory_order_seq_cst)) {
      op.in_use.store(false, std::memory_order_release);
      throw std::runtime_error(
          "Executor::parallel_for: executor is shut down");
    }
    publish_op(op, jobs, nchunks, fn, ctx);
  }
  work_epoch_.fetch_add(1, std::memory_order_seq_cst);
  wake_workers(static_cast<unsigned>(nchunks));

  wait_op(op);

  // Synchronizes with the last finisher via done (release/acquire in
  // wait_op), which itself ordered-after every chunk's remaining
  // decrement — the error slot is stable here.
  std::exception_ptr error = op.error;
  op.active.store(false, std::memory_order_relaxed);
  active_ops_.fetch_sub(1, std::memory_order_seq_cst);
  op.in_use.store(false, std::memory_order_release);
  if (error) std::rethrow_exception(error);
}

Executor::ForOp& Executor::acquire_op() {
  for (;;) {
    for (auto& op : ops_) {
      bool expect = false;
      if (!op->in_use.load(std::memory_order_relaxed) &&
          op->in_use.compare_exchange_strong(expect, true,
                                             std::memory_order_acquire,
                                             std::memory_order_relaxed)) {
        return *op;
      }
    }
    // More concurrent fan-outs than frames (pathological): wait for one.
    std::this_thread::yield();
  }
}

void Executor::publish_op(ForOp& op, int jobs, int nchunks, ForFn fn,
                          void* ctx) {
  op.fn.store(fn, std::memory_order_relaxed);
  op.ctx.store(ctx, std::memory_order_relaxed);
  op.jobs.store(jobs, std::memory_order_relaxed);
  op.nchunks.store(nchunks, std::memory_order_relaxed);
  op.failed.store(false, std::memory_order_relaxed);
  op.error = nullptr;
  op.done.store(0, std::memory_order_relaxed);
  op.remaining.store(nchunks, std::memory_order_relaxed);
  active_ops_.fetch_add(1, std::memory_order_seq_cst);
  parallel_fors_.fetch_add(1, std::memory_order_relaxed);
  // The release stores below are the publication edge every claim CAS
  // acquires against; all fields above are written before them.
  for (int c = 0; c < nchunks; ++c) {
    op.chunk_state[c].store(0, std::memory_order_release);
  }
  op.active.store(true, std::memory_order_release);
}

void Executor::wait_op(ForOp& op) {
  for (int spin = 0; spin < kSpinRounds; ++spin) {
    if (op.done.load(std::memory_order_acquire) != 0) return;
    cpu_relax();
  }
  while (op.done.load(std::memory_order_acquire) == 0) {
    op.done.wait(0, std::memory_order_acquire);
  }
}

// ------------------------------------------------------------------- wake

void Executor::wake_workers(unsigned count) {
  if (count == 0) return;
  for (const auto& worker : workers_) {
    if (worker->sleep.load(std::memory_order_seq_cst) != 1) continue;
    if (worker->sleep.exchange(0, std::memory_order_seq_cst) == 1) {
      worker->sleep.notify_one();
      if (--count == 0) return;
    }
  }
}

// ------------------------------------------------------------------ stats

ExecutorStats Executor::stats() const {
  ExecutorStats s;
  s.workers = size();
  s.parallel_fors = parallel_fors_.load(std::memory_order_relaxed) +
                    inline_fors_.load(std::memory_order_relaxed);
  for (const auto& worker : workers_) {
    s.chunks_run += worker->chunks_run.load(std::memory_order_relaxed);
    s.steal_attempts +=
        worker->steal_attempts.load(std::memory_order_relaxed);
    s.steals += worker->steals.load(std::memory_order_relaxed);
    s.parks += worker->parks.load(std::memory_order_relaxed);
  }
  return s;
}

int Executor::current_worker_slot() const noexcept {
  return tls_worker.executor == this ? static_cast<int>(tls_worker.slot) : -1;
}

}  // namespace scbnn::runtime
