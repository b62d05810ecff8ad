// The serving core: a hybrid model as a ladder of precision rungs.
//
// The paper's model family is indexed by precision: an n-bit stochastic
// first layer paired with the binary tail retrained for n bits. A rung is
// one {bits, FirstLayerEngine, retrained tail} triple; a fixed-precision
// model is simply a one-rung pipeline. For more rungs the pipeline runs
// the paper's dynamic energy-accuracy trade-off: a batch enters the
// cheapest rung, and only the frames whose softmax top1-top2 margin falls
// below the confidence threshold escalate to the next rung.
//
// A rung is one executor fan-out with one job per frame: the frame's first
// layer writes its worker slot's own feature block and the rung's tail
// reads it straight back, so no buffer holds a batch's features. The
// executor groups the jobs into at most one contiguous chunk per worker.
// Later rungs read their surviving frames in place through the list of
// active batch indices.
//
// Warm-path contract: after one warm-up batch, classify() performs zero
// heap allocations. The per-slot feature blocks, first-layer scratches and
// one-frame plan arenas are built at construction; every rung shares two
// grow-only buffers (logits and active indices), sized by the largest
// batch seen; and Predictions are written in place.
//
// Determinism contract: escalation decisions depend only on per-image
// arithmetic (a frame's first-layer features depend on that frame alone,
// and the tail plan runs one image at a time, bit-exact against
// Network::forward), so predictions, margins, and cycle totals are
// bit-identical across thread counts and match a serial rung-by-rung
// escalation of each image.
#pragma once

#include <atomic>
#include <cstddef>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "hybrid/first_layer.h"
#include "nn/inference_plan.h"
#include "nn/network.h"
#include "runtime/executor.h"
#include "runtime/servable.h"

namespace scbnn::runtime {

struct RuntimeConfig {
  unsigned threads = 0;  ///< worker threads; 0 = hardware concurrency
  /// Shared executor to compute on. When set, the pipeline joins this pool
  /// instead of spawning a private one (`threads` is then ignored — the
  /// pool is already sized), so any number of models can serve from one
  /// fixed set of workers without oversubscription. When null (the
  /// default), a private Executor of `threads` workers is built.
  std::shared_ptr<Executor> executor;

  /// Reject nonsense before any pool or scratch is built: threads must not
  /// exceed Executor::kMaxThreads (0 stays the documented "auto" setting).
  /// Throws std::invalid_argument naming the offending field; returns
  /// *this so constructors can validate in their initializer lists.
  const RuntimeConfig& validate() const;

  /// The executor this config resolves to: the shared executor if set,
  /// otherwise a fresh private Executor of `threads` workers.
  [[nodiscard]] std::shared_ptr<Executor> resolve_executor() const;
};

/// One precision rung: a frozen first-layer engine and the binary tail
/// retrained for that precision. Rungs are ordered cheapest first and must
/// have strictly increasing bits; `bits` must equal the engine's bits()
/// (it drives the rung's cycle/energy accounting).
struct AdaptiveRung {
  unsigned bits = 8;
  std::unique_ptr<hybrid::FirstLayerEngine> engine;
  nn::Network tail;
};

/// Per-rung serving statistics for one classify() batch.
struct RungStats {
  unsigned bits = 0;
  int images_in = 0;      ///< images entering this rung
  int images_exited = 0;  ///< images accepted (confident or last rung)
  double latency_ms = 0.0;
  /// SC cycles spent: images_in * kernels * 2^bits (0 for binary rungs).
  double sc_cycles = 0.0;
  double energy_j = 0.0;  ///< first-layer energy from the 65nm model
};

/// Whole-pipeline statistics for one classify() batch: the shared serving
/// totals (sc_cycles/energy_j summed over rungs) plus the per-rung
/// breakdown.
struct PipelineStats : ServeStats {
  std::vector<RungStats> rungs;
  /// Escalation ceiling this batch ran under (== the ladder top when
  /// uncapped).
  int rung_cap = 0;

  [[nodiscard]] double mean_cycles_per_image() const noexcept {
    return images > 0 ? sc_cycles / images : 0.0;
  }
};

class AdaptivePipeline : public Servable {
 public:
  /// `rungs` must be non-empty, engines non-null, bits strictly increasing
  /// and matching each engine's precision, and every tail
  /// InferencePlan-compatible (Conv2D/Dense/MaxPool2/ReLU/Dropout);
  /// `confidence_margin` in [0, 1] is the minimum softmax top1-top2 gap to
  /// accept a rung's verdict without escalating. Throws
  /// std::invalid_argument on any violation (config included).
  AdaptivePipeline(std::vector<AdaptiveRung> rungs, double confidence_margin,
                   RuntimeConfig config = {});

  /// A fixed-precision model: one rung at the engine's precision, nothing
  /// to escalate to.
  AdaptivePipeline(std::unique_ptr<hybrid::FirstLayerEngine> engine,
                   nn::Network tail, RuntimeConfig config = {});

  /// [N,1,28,28] -> [N, kernels, 28, 28] ternary features of rung 0's first
  /// layer, one executor job per frame — the frozen-layer pass tail
  /// retraining consumes. Leaves last_stats() alone.
  [[nodiscard]] nn::Tensor features(const nn::Tensor& images);

  /// Serve one [N,1,28,28] batch and keep only the labels.
  [[nodiscard]] std::vector<int> predict(const nn::Tensor& images);

  /// Mutable access to rung 0's tail, the one features() feeds
  /// (retraining happens in place). Marks that rung's plan stale: the next
  /// batch re-packs its parameters from the (possibly retrained) tail
  /// before running.
  [[nodiscard]] nn::Network& tail();

  // ------------------------------------------------------------- Servable
  /// Ladder escalation over `n` contiguous frames, one fan-out per rung
  /// entered; Predictions carry the accepting rung, its precision, and the
  /// margin. Updates last_stats() with whole-call timing, the per-rung
  /// breakdown, and the first_layer_ms/tail_ms stage split: each rung's
  /// fan-out wall time cut in the ratio of the two stages' times summed
  /// over the workers. Allocation-free once warm.
  ServeStats classify(const float* images, int n, Prediction* out) override;
  using Servable::classify;
  /// The backend name for a one-rung pipeline (e.g. "sc-proposed");
  /// "adaptive(<bits>/<bits>/...-bit <backend>)" for a ladder.
  [[nodiscard]] std::string name() const override;
  [[nodiscard]] unsigned threads() const noexcept override {
    return pool_->size();
  }
  /// Escalation cap for precision-degrading load shedding: subsequent
  /// batches stop escalating past rung `cap` (clamped to the ladder; the
  /// last allowed rung accepts every survivor). The cap is sampled once
  /// per classify() call, so a batch is internally consistent, and with
  /// the cap at the ladder top predictions are bit-identical to the
  /// uncapped pipeline. Safe to call from another thread while a batch
  /// classifies.
  void set_max_rung(int cap) noexcept override {
    max_rung_.store(cap, std::memory_order_relaxed);
  }
  /// Current escalation ceiling, clamped to [0, rung_count() - 1].
  [[nodiscard]] int max_rung() const noexcept override;
  /// The executor this pipeline computes on — pass it to further models to
  /// share one pool.
  [[nodiscard]] const std::shared_ptr<Executor>& executor() const noexcept {
    return pool_;
  }
  /// Live counters of that executor (fleet-wide totals when shared).
  [[nodiscard]] ExecutorStats executor_stats() const override {
    return pool_->stats();
  }

  [[nodiscard]] const PipelineStats& last_stats() const noexcept {
    return stats_;
  }
  [[nodiscard]] std::size_t rung_count() const noexcept {
    return rungs_.size();
  }
  [[nodiscard]] const AdaptiveRung& rung(std::size_t i) const {
    return rungs_.at(i);
  }

  /// SC cycles one image costs at rung `i` (hw::backend_sc_cycles_per_frame
  /// with the rung engine's own kernel count; 0 for binary rungs).
  [[nodiscard]] double rung_cycles_per_image(std::size_t i) const {
    return state_.at(i).sc_cycles;
  }

 private:
  /// One rung's compiled serving state: its tail plan, a first-layer
  /// scratch and a one-frame plan arena per executor worker, and its
  /// hardware cost per frame, priced once at construction.
  struct RungState {
    std::unique_ptr<nn::InferencePlan> plan;
    bool plan_stale = false;  ///< tail() handed out mutable access
    std::vector<std::unique_ptr<hybrid::FirstLayerEngine::Scratch>> scratch;
    std::vector<nn::InferencePlan::Arena> arenas;
    double energy_j = 0.0;
    double sc_cycles = 0.0;
    /// Energy of one frame that exits here: rungs 0..r, one pass each.
    double exit_energy_j = 0.0;
  };

  /// One executor worker slot's workspace, shared by every rung (rungs run
  /// one after another): the feature block a frame's first layer writes
  /// and its tail reads, and the time the slot's jobs spent in each stage
  /// during the current fan-out.
  struct alignas(64) Slot {
    std::vector<float> features;  ///< widest rung's kernels x 784 floats
    ServeClock::duration first_layer{};
    ServeClock::duration tail{};
  };

  /// Rung `r`'s first layer over `m` contiguous frames into `out`
  /// ([m, kernels, 28, 28]), one executor job per frame.
  void run_first_layer(std::size_t r, const float* images, int m, float* out);
  /// Rung `r` over the frames active[0, m) of `images` in one fan-out of m
  /// jobs: job j runs frame active[j]'s first layer and tail back to back
  /// into logits row j. Re-packs a stale plan first. Returns the fan-out's
  /// start and the point that cuts its wall interval in the ratio of the
  /// first-layer and tail times its workers summed.
  std::pair<ServeClock::time_point, ServeClock::time_point> run_rung(
      std::size_t r, const float* images, const int* active, int m,
      float* logits);

  std::vector<AdaptiveRung> rungs_;
  std::atomic<int> max_rung_{kUncappedRung};
  double confidence_margin_;
  std::shared_ptr<Executor> pool_;  ///< private or shared (config.executor)
  std::vector<RungState> state_;  ///< parallel to rungs_
  std::vector<Slot> slots_;       ///< one per executor worker
  // Grow-only warm-path buffers shared by every rung.
  std::vector<float> logits_;
  std::vector<int> active_;  ///< frames still climbing, as batch indices
  PipelineStats stats_;
};

}  // namespace scbnn::runtime
