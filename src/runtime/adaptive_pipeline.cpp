#include "runtime/adaptive_pipeline.h"

#include <algorithm>
#include <chrono>
#include <numeric>
#include <stdexcept>
#include <string>

#include "hw/report.h"
#include "nn/gemm.h"
#include "nn/loss.h"
#include "obs/trace.h"

namespace scbnn::runtime {

namespace {

using Clock = ServeClock;

constexpr std::size_t kPixels =
    static_cast<std::size_t>(hybrid::kImageSize) * hybrid::kImageSize;

std::vector<AdaptiveRung> validate_rungs(std::vector<AdaptiveRung> rungs) {
  if (rungs.empty()) {
    throw std::invalid_argument("AdaptivePipeline: no rungs");
  }
  for (std::size_t i = 0; i < rungs.size(); ++i) {
    if (!rungs[i].engine) {
      throw std::invalid_argument("AdaptivePipeline: null engine in rung " +
                                  std::to_string(i));
    }
    // bits drives the cycle/energy accounting; a mismatch with the engine's
    // actual precision would silently misreport every stat.
    if (rungs[i].bits != rungs[i].engine->bits()) {
      throw std::invalid_argument(
          "AdaptivePipeline: rung " + std::to_string(i) + " declares " +
          std::to_string(rungs[i].bits) + " bits but its engine runs at " +
          std::to_string(rungs[i].engine->bits()));
    }
    if (i > 0 && rungs[i].bits <= rungs[i - 1].bits) {
      throw std::invalid_argument(
          "AdaptivePipeline: rungs must have strictly increasing bits");
    }
  }
  return rungs;
}

std::vector<AdaptiveRung> one_rung(
    std::unique_ptr<hybrid::FirstLayerEngine> engine, nn::Network tail) {
  if (!engine) {
    throw std::invalid_argument("AdaptivePipeline: null first-layer engine");
  }
  std::vector<AdaptiveRung> rungs(1);
  rungs[0].bits = engine->bits();
  rungs[0].engine = std::move(engine);
  rungs[0].tail = std::move(tail);
  return rungs;
}

/// `buf`'s storage, grown to at least `n` elements and never shrunk. The
/// contents are scratch, so outgrowing the capacity frees the old block
/// before allocating the new one instead of copying it.
template <class T>
T* grow(std::vector<T>& buf, std::size_t n) {
  if (buf.size() < n) {
    if (buf.capacity() < n) std::vector<T>().swap(buf);
    buf.resize(n);
  }
  return buf.data();
}

/// Record a stage span over clock points already measured for the stats
/// (ServeClock and the trace clock are both steady_clock).
void record_stage(obs::SpanName name, std::uint64_t trace_id, int images,
                  Clock::time_point start, Clock::time_point end) {
  const auto to_ns = [](Clock::time_point t) {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               t.time_since_epoch())
        .count();
  };
  obs::TraceSpan span;
  span.trace_id = trace_id;
  span.name = name;
  span.arg0 = static_cast<std::uint64_t>(images);
  span.start_ns = to_ns(start);
  span.dur_ns = std::max<std::int64_t>(to_ns(end) - to_ns(start), 1);
  obs::record_span(span);
}

}  // namespace

const RuntimeConfig& RuntimeConfig::validate() const {
  if (threads > Executor::kMaxThreads) {
    throw std::invalid_argument(
        "RuntimeConfig: threads must be <= " +
        std::to_string(Executor::kMaxThreads) + " (0 = auto), got " +
        std::to_string(threads));
  }
  return *this;
}

std::shared_ptr<Executor> RuntimeConfig::resolve_executor() const {
  return executor ? executor
                  : std::make_shared<Executor>(threads);
}

AdaptivePipeline::AdaptivePipeline(std::vector<AdaptiveRung> rungs,
                                   double confidence_margin,
                                   RuntimeConfig config)
    : rungs_(validate_rungs(std::move(rungs))),
      confidence_margin_(confidence_margin),
      pool_(config.validate().resolve_executor()) {
  if (confidence_margin < 0.0 || confidence_margin > 1.0) {
    throw std::invalid_argument("AdaptivePipeline: margin must be in [0,1]");
  }
  state_.resize(rungs_.size());
  int max_kernels = 0;
  for (std::size_t r = 0; r < rungs_.size(); ++r) {
    AdaptiveRung& rung = rungs_[r];
    const hybrid::FirstLayerEngine& engine = *rung.engine;
    RungState& s = state_[r];
    // A tail the plan cannot run throws std::invalid_argument naming the
    // offending layer.
    s.plan = std::make_unique<nn::InferencePlan>(
        rung.tail, engine.kernels(), hybrid::kImageSize, hybrid::kImageSize);
    s.scratch.reserve(pool_->size());
    s.arenas.reserve(pool_->size());
    for (unsigned w = 0; w < pool_->size(); ++w) {
      s.scratch.push_back(engine.make_scratch());
      s.arenas.push_back(s.plan->make_arena());
    }
    s.energy_j = hw::backend_energy_per_frame_j(engine.name(), rung.bits,
                                                engine.kernels());
    s.sc_cycles = hw::backend_sc_cycles_per_frame(engine.name(), rung.bits,
                                                  engine.kernels());
    s.exit_energy_j = (r > 0 ? state_[r - 1].exit_energy_j : 0.0) + s.energy_j;
    max_kernels = std::max(max_kernels, engine.kernels());
  }
  stats_.rungs.resize(rungs_.size());
  slots_.resize(pool_->size());
  for (Slot& slot : slots_) {
    slot.features.resize(static_cast<std::size_t>(max_kernels) *
                         hybrid::kOutputsPerKernel);
  }
}

AdaptivePipeline::AdaptivePipeline(
    std::unique_ptr<hybrid::FirstLayerEngine> engine, nn::Network tail,
    RuntimeConfig config)
    : AdaptivePipeline(one_rung(std::move(engine), std::move(tail)), 0.0,
                       std::move(config)) {}

int AdaptivePipeline::max_rung() const noexcept {
  const int top = static_cast<int>(rungs_.size()) - 1;
  return std::clamp(max_rung_.load(std::memory_order_relaxed), 0, top);
}

nn::Network& AdaptivePipeline::tail() {
  // The caller may retrain through this reference: re-pack the plan's
  // Dense weight copies before the next batch.
  state_.front().plan_stale = true;
  return rungs_.front().tail;
}

void AdaptivePipeline::run_first_layer(std::size_t r, const float* images,
                                       int m, float* out) {
  const hybrid::FirstLayerEngine& engine = *rungs_[r].engine;
  RungState& s = state_[r];
  const std::size_t out_stride =
      static_cast<std::size_t>(engine.kernels()) * hybrid::kOutputsPerKernel;
  pool_->parallel_for(m, [&](int j, unsigned worker) {
    engine.compute(images + static_cast<std::size_t>(j) * kPixels,
                   out + static_cast<std::size_t>(j) * out_stride,
                   *s.scratch[worker]);
  });
}

std::pair<ServeClock::time_point, ServeClock::time_point>
AdaptivePipeline::run_rung(std::size_t r, const float* images,
                           const int* active, int m, float* logits) {
  const hybrid::FirstLayerEngine& engine = *rungs_[r].engine;
  RungState& s = state_[r];
  if (s.plan_stale) {
    s.plan->refresh_params();
    s.plan_stale = false;
  }
  const nn::InferencePlan& plan = *s.plan;
  const nn::kern::Level level = nn::kern::active_level();
  for (Slot& slot : slots_) slot.first_layer = slot.tail = {};
  const auto start = Clock::now();
  pool_->parallel_for(m, [&](int j, unsigned worker) {
    Slot& slot = slots_[worker];
    float* const feats = slot.features.data();
    const auto frame_start = Clock::now();
    engine.compute(images + static_cast<std::size_t>(active[j]) * kPixels,
                   feats, *s.scratch[worker]);
    const auto tail_start = Clock::now();
    plan.run(feats, logits + static_cast<std::size_t>(j) * plan.classes(),
             s.arenas[worker], level);
    const auto frame_end = Clock::now();
    slot.first_layer += tail_start - frame_start;
    slot.tail += frame_end - tail_start;
  });
  const auto end = Clock::now();

  Clock::duration first_layer{}, tail{};
  for (const Slot& slot : slots_) {
    first_layer += slot.first_layer;
    tail += slot.tail;
  }
  const double busy = static_cast<double>((first_layer + tail).count());
  const double share =
      busy > 0.0 ? static_cast<double>(first_layer.count()) / busy : 0.0;
  const double wall = static_cast<double>((end - start).count());
  return {start,
          start + Clock::duration(static_cast<Clock::rep>(share * wall))};
}

nn::Tensor AdaptivePipeline::features(const nn::Tensor& images) {
  check_image_batch(images, "AdaptivePipeline::features");
  const int n = images.dim(0);
  nn::Tensor out({n, rungs_.front().engine->kernels(), hybrid::kImageSize,
                  hybrid::kImageSize});
  run_first_layer(0, images.data(), n, out.data());
  return out;
}

std::vector<int> AdaptivePipeline::predict(const nn::Tensor& images) {
  const std::vector<Prediction> preds = Servable::classify(images);
  std::vector<int> labels(preds.size());
  std::transform(preds.begin(), preds.end(), labels.begin(),
                 [](const Prediction& p) { return p.label; });
  return labels;
}

ServeStats AdaptivePipeline::classify(const float* images, int n,
                                      Prediction* out) {
  const auto batch_start = Clock::now();
  // Sampled once per batch: every frame of this batch climbs the same
  // (possibly capped) ladder, and the last allowed rung accepts all of its
  // survivors.
  const auto last_rung = static_cast<std::size_t>(max_rung());
  const std::uint64_t trace_id = obs::ambient_trace_id();
  const bool traced = obs::trace_sampled(trace_id);

  static_cast<ServeStats&>(stats_) = ServeStats{};
  stats_.rung_cap = static_cast<int>(last_rung);
  for (std::size_t r = 0; r < rungs_.size(); ++r) {
    stats_.rungs[r] = RungStats{};
    stats_.rungs[r].bits = rungs_[r].bits;
  }

  // active[0, m) are the batch indices still climbing the ladder.
  int* const active = grow(active_, static_cast<std::size_t>(n));
  std::iota(active, active + n, 0);
  int m = n;
  for (std::size_t r = 0; r <= last_rung && m > 0; ++r) {
    const AdaptiveRung& rung = rungs_[r];
    const RungState& s = state_[r];
    const auto rung_start = Clock::now();
    obs::SpanScope rung_span(obs::SpanName::kPipelineRung, trace_id, r,
                             static_cast<std::uint64_t>(m), rung.bits);

    const int classes = s.plan->classes();
    float* const logits =
        grow(logits_, static_cast<std::size_t>(m) * classes);
    const auto [first_layer_start, tail_start] =
        run_rung(r, images, active, m, logits);
    const bool last = r == last_rung;
    int escalated = 0;
    for (int j = 0; j < m; ++j) {
      const int idx = active[j];
      const nn::SoftmaxMargin sm = nn::softmax_margin_row(
          logits + static_cast<std::size_t>(j) * classes, classes);
      Prediction& p = out[idx];
      p = Prediction{};
      p.label = sm.best;
      p.margin = sm.margin;
      p.rung = static_cast<int>(r);
      p.bits_used = rung.bits;
      p.rung_cap = stats_.rung_cap;
      p.energy_j = s.exit_energy_j;
      // Compacts in place: escalated <= j, so no index is overwritten
      // before it is read.
      if (sm.margin < confidence_margin_ && !last) active[escalated++] = idx;
    }
    const auto rung_end = Clock::now();

    // Margins and the prediction fill count as tail time.
    stats_.first_layer_ms += ms_between(first_layer_start, tail_start);
    stats_.tail_ms += ms_between(tail_start, rung_end);
    if (traced) {
      record_stage(obs::SpanName::kFirstLayer, trace_id, m,
                   first_layer_start, tail_start);
      record_stage(obs::SpanName::kTail, trace_id, m, tail_start, rung_end);
    }
    RungStats& rs = stats_.rungs[r];
    rs.images_in = m;
    rs.images_exited = m - escalated;
    rs.latency_ms = ms_between(rung_start, rung_end);
    rs.sc_cycles = static_cast<double>(m) * s.sc_cycles;
    rs.energy_j = static_cast<double>(m) * s.energy_j;
    stats_.sc_cycles += rs.sc_cycles;
    stats_.energy_j += rs.energy_j;
    m = escalated;
  }

  stats_.set_timing(n, pool_->size(), ms_between(batch_start, Clock::now()));
  return stats_;
}

std::string AdaptivePipeline::name() const {
  if (rungs_.size() == 1) return rungs_.front().engine->name();
  std::string bits;
  for (const AdaptiveRung& rung : rungs_) {
    if (!bits.empty()) bits += "/";
    bits += std::to_string(rung.bits);
  }
  return "adaptive(" + bits + "-bit " + rungs_.front().engine->name() + ")";
}

}  // namespace scbnn::runtime
