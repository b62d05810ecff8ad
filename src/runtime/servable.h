// The request-level serving contract of the runtime layer.
//
// A Servable is anything that can turn a contiguous run of 28x28 frames
// into per-frame Predictions with aggregate ServeStats. The one model
// implementation is AdaptivePipeline (a fixed-precision model is its
// one-rung case); the request Server, the fleet shards, the benches, and
// the examples all treat "a backend" as this one type. The contract's
// load-bearing clause is determinism: a frame's Prediction depends only on
// the frame's pixels (plus the backend's frozen state), never on how the
// caller grouped frames into batches — that is what lets the Server
// coalesce single-image requests into dense micro-batches while staying
// bit-identical to direct batch calls.
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "nn/tensor.h"
#include "runtime/executor.h"

namespace scbnn::runtime {

/// Monotonic clock shared by the serving layer (batch timing, queue waits).
using ServeClock = std::chrono::steady_clock;

/// Milliseconds elapsed since `start` — the serving layer's one way to
/// turn clock points into reported latencies.
[[nodiscard]] double ms_between(ServeClock::time_point start,
                                ServeClock::time_point end);

/// One classified frame. The arithmetic fields (label, margin, rung,
/// bits_used, energy_j) are bit-identical however the frame reached the
/// backend; the timing fields are filled by runtime::Server and stay zero
/// on direct Servable::classify calls.
struct Prediction {
  /// Trace id minted at submit (Server or FleetCoordinator); 0 on direct
  /// Servable::classify calls. Connects this prediction to its spans in a
  /// Chrome trace dump.
  std::uint64_t trace_id = 0;
  int label = -1;          ///< argmax class
  double margin = 0.0;     ///< softmax top1-top2 gap at acceptance
  int rung = 0;            ///< accepting rung (0 for single-rung backends)
  unsigned bits_used = 0;  ///< first-layer precision that produced the label
  /// Escalation ceiling in effect when this frame was served: the batch's
  /// effective ladder top (AdaptivePipeline fills it exactly, however the
  /// cap moved between submit and dispatch; 0 for single-rung backends).
  /// rung_cap < the backend's full ladder top means the frame was served
  /// degraded.
  int rung_cap = 0;
  /// First-layer energy this frame cost: one pass of every rung it entered,
  /// 0..rung, from the calibrated 65nm model (0 when the backend has none).
  double energy_j = 0.0;

  // Request-level accounting (Server only).
  double queue_wait_ms = 0.0;  ///< enqueue -> batch dispatch
  double compute_ms = 0.0;     ///< batch dispatch -> backend done
  int batch_size = 0;          ///< size of the coalesced batch served with

  /// End-to-end request latency as tracked by the Server.
  [[nodiscard]] double e2e_ms() const noexcept {
    return queue_wait_ms + compute_ms;
  }
};

/// Aggregate statistics for one batched classify() call.
struct ServeStats {
  int images = 0;
  unsigned threads = 1;
  double latency_ms = 0.0;
  /// First-layer energy for the whole batch (J) from the calibrated 65nm
  /// model; 0 when the backend has no hardware model at this precision.
  double energy_j = 0.0;
  /// SC cycles spent on the batch; 0 for backends without an SC notion.
  double sc_cycles = 0.0;
  /// Stage split of latency_ms: time in the stochastic first layer vs the
  /// binary tail (conv/dense GEMMs + margins + prediction fill), summed
  /// over rungs. Both 0 when the backend doesn't separate stages. When
  /// both stages run in one fan-out, its wall time is cut in the ratio of
  /// the two stages' times summed over the workers. They need not sum
  /// exactly to latency_ms — glue (buffer growth, stats) stays outside
  /// both.
  double first_layer_ms = 0.0;
  double tail_ms = 0.0;

  /// Fill the latency-derived fields from a wall-clock measurement.
  void set_timing(int n, unsigned thread_count, double elapsed_ms) noexcept;
};

class Servable {
 public:
  virtual ~Servable();

  /// Primary entry point: `n` contiguous 28x28 frames -> `n` Predictions
  /// written to `out`. Deterministic per frame: splitting or coalescing the
  /// same frames into different batches must not change any Prediction's
  /// arithmetic fields, bit for bit.
  virtual ServeStats classify(const float* images, int n,
                              Prediction* out) = 0;

  /// Identifies the backend in bench tables and JSON reports.
  [[nodiscard]] virtual std::string name() const = 0;

  /// Worker threads the backend computes with (its pool size).
  [[nodiscard]] virtual unsigned threads() const noexcept = 0;

  /// Counter snapshot of the executor the backend computes on (fan-outs,
  /// chunks, steal attempts, steals, parks — see ExecutorStats). When
  /// models share one executor the numbers are fleet-wide, which is the
  /// point: one place to read whether the compute layer is balanced.
  /// Backends without an executor report the default-constructed zeros.
  [[nodiscard]] virtual ExecutorStats executor_stats() const {
    return ExecutorStats{};
  }

  /// Cap value meaning "no cap": the full ladder may run.
  static constexpr int kUncappedRung = 1 << 20;

  /// Overload-adaptive precision degradation hook: cap ladder escalation at
  /// rung `cap` (values are clamped to the backend's ladder; kUncappedRung
  /// or anything past the top restores the full ladder). Thread-safe and
  /// callable while classify() runs on another thread — the cap is read
  /// once per batch, so every frame in a dispatched batch sees the same
  /// ladder. Single-rung backends have nothing to cap; the default is a
  /// no-op.
  virtual void set_max_rung(int cap) noexcept;

  /// Highest rung classify() may currently escalate to (always clamped to
  /// the ladder, so an uncapped backend reports its top rung index).
  /// 0 for single-rung backends.
  [[nodiscard]] virtual int max_rung() const noexcept;

  /// Tensor convenience: validates [N,1,28,28] and classifies the batch.
  [[nodiscard]] std::vector<Prediction> classify(const nn::Tensor& images);
};

/// Shared [N,1,28,28] shape check; throws std::invalid_argument naming
/// `where` on any other shape.
void check_image_batch(const nn::Tensor& images, const char* where);

}  // namespace scbnn::runtime
