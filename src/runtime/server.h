// Request-level serving core: dynamic micro-batching over any Servable.
//
// The paper's near-sensor setting produces work as a stream of individual
// frames, but every backend in this runtime amortizes per-invocation
// overhead (pool wakeups, tail forward setup, scratch reuse) across dense
// batches. The Server bridges the two: producers submit single frames (or
// small bursts) and get std::future<Prediction>s; a batch-former thread
// coalesces queued requests into a dense batch and dispatches it when
// either `max_batch` requests are waiting or the oldest has waited
// `max_delay_us` — so an idle server stays low-latency and a loaded server
// converges to full batches.
//
// Guarantees:
//   - Bit identity: the backend sees frames exactly as a caller-formed
//     batch would present them, so a Prediction's arithmetic fields are
//     identical to a direct Servable::classify call, however requests got
//     coalesced.
//   - Admission control: a full queue rejects new requests with
//     QueueFullError instead of blocking the producer.
//   - Per-request accounting: every Prediction reports queue wait,
//     compute time, and the size of the batch it rode in.
//   - Graceful shutdown: shutdown() (and the destructor) stop admissions,
//     drain every queued request through the backend, resolve all futures,
//     and join the batch former — the same drain-then-join semantics as
//     the executor.
#pragma once

#include <cstddef>
#include <future>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "obs/metrics.h"
#include "runtime/request_queue.h"
#include "runtime/servable.h"

namespace scbnn::runtime {

struct ServerConfig {
  /// Ceiling on max_delay_us: one minute. Any micro-batching deadline
  /// beyond that is a misconfiguration, and bounding it keeps the batch
  /// former's deadline arithmetic far from clock-representation overflow.
  static constexpr long kMaxDelayUs = 60'000'000;

  int max_batch = 16;        ///< dispatch when this many requests wait
  long max_delay_us = 1000;  ///< ... or when the oldest waited this long
  std::size_t queue_capacity = 256;  ///< admission-control bound

  /// max_batch >= 1, max_delay_us in [0, kMaxDelayUs], queue_capacity
  /// >= 1; throws std::invalid_argument naming the offending field.
  /// Returns *this so constructors can validate in initializer lists.
  const ServerConfig& validate() const;
};

/// Aggregate counters over the server's lifetime (snapshot via stats()).
struct ServerStats {
  long accepted = 0;   ///< requests admitted to the queue
  long rejected = 0;   ///< requests refused by admission control
  long completed = 0;  ///< futures resolved with a Prediction
  long failed = 0;     ///< futures resolved with an exception
  long batches = 0;    ///< dispatches to the backend
  double queue_wait_ms_sum = 0.0;  ///< summed over completed requests
  double compute_ms_sum = 0.0;     ///< summed over completed requests
  double energy_j = 0.0;           ///< summed backend energy estimate
  /// batch_histogram[s] = batches dispatched with exactly s requests
  /// (index 0 unused); size is max_batch + 1.
  std::vector<long> batch_histogram;

  [[nodiscard]] double mean_batch_size() const noexcept {
    return batches > 0 ? static_cast<double>(completed + failed) / batches
                       : 0.0;
  }
};

class Server {
 public:
  /// Serve `backend` with dynamic micro-batching. The Server does not own
  /// the backend; it must outlive the Server, and direct classify() calls
  /// on it are only safe once the Server has shut down (the batch former
  /// is the sole caller while running).
  explicit Server(Servable& backend, ServerConfig config = {});

  /// Graceful: equivalent to shutdown().
  ~Server();

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Submit one 28x28 frame (copied). Returns the future that resolves to
  /// its Prediction. Throws QueueFullError when the queue is at capacity
  /// and std::runtime_error after shutdown.
  [[nodiscard]] std::future<Prediction> submit(const float* image);

  /// Stop admitting requests, serve everything already queued, resolve all
  /// outstanding futures, and join the batch former. Idempotent; safe to
  /// call from any thread except the batch former itself.
  void shutdown();

  [[nodiscard]] ServerStats stats() const;

  /// Register registry views over this server's live stats (admission
  /// counters, queue depth, batching, queue wait, energy) and its
  /// backend's executor counters, labeled model=`model`. Exports after the
  /// Server is gone read zeros; exports must not race its destruction.
  /// Re-registration with the same label is idempotent.
  void register_metrics(obs::MetricsRegistry& registry,
                        const std::string& model);

  /// The backend's compute-executor counters (fleet-wide totals when the
  /// backend shares its executor with other models).
  [[nodiscard]] ExecutorStats executor_stats() const {
    return backend_.executor_stats();
  }
  [[nodiscard]] const ServerConfig& config() const noexcept {
    return config_;
  }
  [[nodiscard]] const Servable& backend() const noexcept { return backend_; }
  /// Requests currently waiting for dispatch — the overload signal a
  /// stream supervisor or backpressure policy watches.
  [[nodiscard]] std::size_t queue_depth() const { return queue_.size(); }

 private:
  void serve_loop();

  Servable& backend_;
  ServerConfig config_;
  RequestQueue queue_;
  mutable std::mutex stats_mutex_;
  ServerStats stats_;
  std::once_flag shutdown_once_;
  std::thread batch_former_;
  /// Non-owning handle to this server for its own registry views. Declared
  /// last, so it expires before any other member is torn down.
  const std::shared_ptr<const Server> self_{this, [](const Server*) {}};
};

}  // namespace scbnn::runtime
