// Sensor-stream subsystem tests: deterministic frame sources and arrival
// models, noisy-sensor decorator seeding, the three backpressure policies
// through a live Server, and StreamSupervisor rung-cap degradation and
// recovery (both against fake load signals and a real overloaded stream).
#include "sensor/sensor_session.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "data/synthetic_mnist.h"
#include "hybrid/hybrid_network.h"
#include "nn/init.h"
#include "nn/quantize.h"
#include "obs/metrics.h"
#include "runtime/adaptive_pipeline.h"
#include "runtime/backend_registry.h"
#include "runtime/server.h"
#include "sensor/frame_source.h"
#include "sensor/stream_supervisor.h"

namespace scbnn::sensor {
namespace {

constexpr std::size_t kPixels =
    static_cast<std::size_t>(hybrid::kImageSize) * hybrid::kImageSize;

hybrid::LeNetConfig tiny_lenet() {
  hybrid::LeNetConfig cfg;
  cfg.conv1_kernels = 8;
  cfg.conv2_kernels = 8;
  cfg.dense_units = 32;
  cfg.dropout = 0.0f;
  return cfg;
}

/// Deterministic fixed-precision backend (shared base model, frozen).
std::shared_ptr<runtime::AdaptivePipeline> make_engine_backend() {
  nn::Rng base_rng(3);
  nn::Network base = hybrid::build_lenet(tiny_lenet(), base_rng);
  const auto qw =
      nn::quantize_conv_weights(hybrid::base_conv1_weights(base), 4);
  hybrid::FirstLayerConfig flc;
  flc.bits = 4;
  flc.soft_threshold = 0.3;
  runtime::RuntimeConfig rc;
  rc.threads = 2;
  rc.chunk_images = 3;
  nn::Rng tail_rng(7);
  nn::Network tail = hybrid::build_tail(tiny_lenet(), tail_rng);
  hybrid::copy_tail_params(base, tail);
  return std::make_shared<runtime::AdaptivePipeline>(
      runtime::BackendRegistry::instance().create("sc-proposed", qw, flc),
      std::move(tail), rc);
}

/// Deterministic two-rung adaptive backend; `margin` tunes how eagerly it
/// escalates (1.0 = every frame climbs the whole allowed ladder).
std::shared_ptr<runtime::AdaptivePipeline> make_adaptive_backend(
    double margin) {
  nn::Rng base_rng(3);
  nn::Network base = hybrid::build_lenet(tiny_lenet(), base_rng);
  std::vector<runtime::AdaptiveRung> rungs;
  for (unsigned bits : {3u, 6u}) {
    runtime::AdaptiveRung rung;
    rung.bits = bits;
    const auto qw =
        nn::quantize_conv_weights(hybrid::base_conv1_weights(base), bits);
    hybrid::FirstLayerConfig flc;
    flc.bits = bits;
    flc.soft_threshold = 0.3;
    rung.engine = hybrid::make_first_layer_engine(
        hybrid::FirstLayerDesign::kScProposed, qw, flc);
    nn::Rng tail_rng(7);
    rung.tail = hybrid::build_tail(tiny_lenet(), tail_rng);
    hybrid::copy_tail_params(base, rung.tail);
    rungs.push_back(std::move(rung));
  }
  runtime::RuntimeConfig rc;
  rc.threads = 2;
  rc.chunk_images = 3;
  return std::make_shared<runtime::AdaptivePipeline>(std::move(rungs), margin,
                                                     rc);
}

/// Decorator that slows every batch down by a fixed sleep — a determinate
/// way to overload a stream regardless of machine speed. Forwards the
/// rung-cap API so a supervisor can degrade through it.
class SlowServable : public runtime::Servable {
 public:
  SlowServable(std::shared_ptr<runtime::Servable> inner,
               std::chrono::microseconds delay)
      : inner_(std::move(inner)), delay_(delay) {}

  runtime::ServeStats classify(const float* images, int n,
                               runtime::Prediction* out) override {
    std::this_thread::sleep_for(delay_);
    return inner_->classify(images, n, out);
  }
  [[nodiscard]] std::string name() const override {
    return "slow(" + inner_->name() + ")";
  }
  [[nodiscard]] unsigned threads() const noexcept override {
    return inner_->threads();
  }
  void set_max_rung(int cap) noexcept override { inner_->set_max_rung(cap); }
  [[nodiscard]] int max_rung() const noexcept override {
    return inner_->max_rung();
  }

 private:
  std::shared_ptr<runtime::Servable> inner_;
  std::chrono::microseconds delay_;
};

/// A three-rung ladder in cap behavior only — classify is trivial. For
/// supervisor unit tests that need determinism without real compute.
class FakeLadder : public runtime::Servable {
 public:
  explicit FakeLadder(int top_rung) : top_(top_rung) {}

  runtime::ServeStats classify(const float* /*images*/, int n,
                               runtime::Prediction* out) override {
    for (int i = 0; i < n; ++i) out[i] = runtime::Prediction{};
    runtime::ServeStats stats;
    stats.images = n;
    return stats;
  }
  [[nodiscard]] std::string name() const override { return "fake-ladder"; }
  [[nodiscard]] unsigned threads() const noexcept override { return 1; }
  void set_max_rung(int cap) noexcept override {
    cap_.store(cap, std::memory_order_relaxed);
  }
  [[nodiscard]] int max_rung() const noexcept override {
    const int cap = cap_.load(std::memory_order_relaxed);
    return cap < 0 ? 0 : (cap > top_ ? top_ : cap);
  }

 private:
  int top_;
  std::atomic<int> cap_{runtime::Servable::kUncappedRung};
};

/// Scriptable load signal for deterministic supervisor tests.
class FakeSignal : public LoadSignal {
 public:
  [[nodiscard]] long inflight() const override { return inflight_.load(); }
  [[nodiscard]] double recent_p99_ms() const override { return p99_.load(); }
  void set(long inflight, double p99 = 0.0) {
    inflight_.store(inflight);
    p99_.store(p99);
  }

 private:
  std::atomic<long> inflight_{0};
  std::atomic<double> p99_{0.0};
};

ArrivalConfig arrivals(ArrivalKind kind, double rate_hz) {
  ArrivalConfig cfg;
  cfg.kind = kind;
  cfg.rate_hz = rate_hz;
  return cfg;
}

/// Collect a source's full stream (reset first).
std::vector<Frame> drain(FrameSource& source) {
  source.reset();
  std::vector<Frame> frames;
  Frame frame;
  while (source.next(frame)) frames.push_back(frame);
  return frames;
}

void expect_same_stream(const std::vector<Frame>& a,
                        const std::vector<Frame>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].sequence, b[i].sequence);
    EXPECT_EQ(a[i].label, b[i].label);
    EXPECT_DOUBLE_EQ(a[i].gap_s, b[i].gap_s);
    ASSERT_EQ(a[i].pixels, b[i].pixels) << "frame " << i << " differs";
  }
}

data::Dataset tiny_pool(std::size_t n) {
  return data::generate_synthetic_mnist(n, 1, 11).train;
}

/// Direct Servable::classify of a source's whole stream, indexed by frame
/// sequence; leaves the source reset for the session. Call before a Server
/// owns `backend` (the batch former is its sole classify() caller while
/// the server runs).
std::vector<runtime::Prediction> classify_stream(runtime::Servable& backend,
                                                 FrameSource& source) {
  const std::vector<Frame> frames = drain(source);
  source.reset();
  nn::Tensor batch({static_cast<int>(frames.size()), 1, hybrid::kImageSize,
                    hybrid::kImageSize});
  for (std::size_t i = 0; i < frames.size(); ++i) {
    std::copy(frames[i].pixels.begin(), frames[i].pixels.end(),
              batch.data() + i * kPixels);
  }
  return backend.classify(batch);
}

// ------------------------------------------------------------ ArrivalModel

TEST(ArrivalModel, DeterministicPerSeedAndAcrossReset) {
  for (const ArrivalKind kind :
       {ArrivalKind::kUniform, ArrivalKind::kPoisson, ArrivalKind::kBursty,
        ArrivalKind::kDiurnal}) {
    ArrivalModel a(arrivals(kind, 500.0), 42);
    ArrivalModel b(arrivals(kind, 500.0), 42);
    std::vector<double> first;
    for (int i = 0; i < 64; ++i) {
      const double gap = a.next_gap_s();
      EXPECT_GE(gap, 0.0);
      EXPECT_DOUBLE_EQ(gap, b.next_gap_s()) << to_string(kind);
      first.push_back(gap);
    }
    a.reset();
    for (int i = 0; i < 64; ++i) {
      EXPECT_DOUBLE_EQ(a.next_gap_s(), first[static_cast<std::size_t>(i)])
          << to_string(kind) << " after reset";
    }
  }
}

TEST(ArrivalModel, UniformIsExactlyTheMeanGap) {
  ArrivalModel m(arrivals(ArrivalKind::kUniform, 250.0), 1);
  for (int i = 0; i < 10; ++i) EXPECT_DOUBLE_EQ(m.next_gap_s(), 1.0 / 250.0);
}

TEST(ArrivalModel, PoissonMeanRateIsRoughlyHonored) {
  ArrivalModel m(arrivals(ArrivalKind::kPoisson, 1000.0), 9);
  double total = 0.0;
  constexpr int kN = 4000;
  for (int i = 0; i < kN; ++i) total += m.next_gap_s();
  const double mean_gap = total / kN;
  EXPECT_NEAR(mean_gap, 1e-3, 2e-4);  // fixed seed, generous band
}

TEST(ArrivalModel, BurstyLongRunRateMatchesConfiguredRate) {
  // Regression: the idle gap stands in for the first frame's burst gap,
  // so each burst_len-frame cycle must average burst_len/rate_hz total.
  ArrivalConfig cfg = arrivals(ArrivalKind::kBursty, 1000.0);
  cfg.burst_len = 4;
  ArrivalModel m(cfg, 9);
  double total = 0.0;
  constexpr int kN = 8000;
  for (int i = 0; i < kN; ++i) total += m.next_gap_s();
  EXPECT_NEAR(total / kN, 1e-3, 2e-4);  // fixed seed, generous band
}

TEST(ArrivalModel, ValidateRejectsNonsense) {
  ArrivalConfig bad = arrivals(ArrivalKind::kPoisson, 0.0);
  EXPECT_THROW(bad.validate(), std::invalid_argument);
  bad = arrivals(ArrivalKind::kBursty, 100.0);
  bad.burst_rate_hz = 50.0;  // "burst" slower than the mean
  EXPECT_THROW(bad.validate(), std::invalid_argument);
  bad = arrivals(ArrivalKind::kDiurnal, 100.0);
  bad.swing = 1.0;
  EXPECT_THROW(bad.validate(), std::invalid_argument);
}

// ----------------------------------------------------- DatasetReplaySource

TEST(DatasetReplaySource, DeterministicWrapsAndTerminates) {
  const data::Dataset pool = tiny_pool(5);
  DatasetReplaySource a(pool, 12, arrivals(ArrivalKind::kPoisson, 1000.0),
                        21);
  DatasetReplaySource b(pool, 12, arrivals(ArrivalKind::kPoisson, 1000.0),
                        21);
  const std::vector<Frame> sa = drain(a);
  const std::vector<Frame> sb = drain(b);
  expect_same_stream(sa, sb);
  ASSERT_EQ(sa.size(), 12u);

  // Wrap-around: frame 5+i replays image i, label included.
  for (std::size_t i = 0; i < 5; ++i) {
    EXPECT_EQ(sa[i].pixels, sa[i + 5].pixels);
    EXPECT_EQ(sa[i].label, sa[i + 5].label);
    EXPECT_EQ(sa[i].label, pool.labels[i]);
  }
  // Exhausted: another next() keeps returning false.
  Frame extra;
  EXPECT_FALSE(a.next(extra));
  EXPECT_FALSE(a.next(extra));
  EXPECT_EQ(a.total_frames(), 12);
}

TEST(DatasetReplaySource, RejectsEmptyAndNonPositive) {
  const data::Dataset pool = tiny_pool(3);
  EXPECT_THROW(DatasetReplaySource(data::Dataset{}, 5,
                                   arrivals(ArrivalKind::kUniform, 10.0), 1),
               std::invalid_argument);
  EXPECT_THROW(
      DatasetReplaySource(pool, 0, arrivals(ArrivalKind::kUniform, 10.0), 1),
      std::invalid_argument);
}

// ---------------------------------------------------- DriftingCameraSource

TEST(DriftingCameraSource, DeterministicDriftingAndLabeled) {
  CameraDrift drift;
  drift.translate_px = 3.0;
  drift.period_frames = 40;
  DriftingCameraSource a(60, arrivals(ArrivalKind::kUniform, 100.0), 5,
                         drift);
  DriftingCameraSource b(60, arrivals(ArrivalKind::kUniform, 100.0), 5,
                         drift);
  const std::vector<Frame> sa = drain(a);
  expect_same_stream(sa, drain(b));
  ASSERT_EQ(sa.size(), 60u);

  for (const Frame& f : sa) {
    EXPECT_EQ(f.label, static_cast<int>(f.sequence % 10));
    for (const float p : f.pixels) {
      EXPECT_GE(p, 0.0f);
      EXPECT_LE(p, 1.0f);
    }
  }
  // The camera actually drifts: the same digit at opposite drift phases
  // renders differently (frames 0 and 20 are both '0' with instance 0/20,
  // so compare frames 10 and 30 — same digit, same phase offset half a
  // period apart -> opposite translation).
  EXPECT_NE(sa[10].pixels, sa[30].pixels);
}

// ------------------------------------------------------- NoisySensorSource

std::unique_ptr<FrameSource> replay(const data::Dataset& pool, long frames,
                                    std::uint64_t seed) {
  return std::make_unique<DatasetReplaySource>(
      pool, frames, arrivals(ArrivalKind::kUniform, 1000.0), seed);
}

TEST(NoisySensorSource, ZeroNoiseIsPassthrough) {
  const data::Dataset pool = tiny_pool(4);
  NoisySensorSource noisy(replay(pool, 8, 3), NoisySensorSource::Noise{}, 99);
  DatasetReplaySource clean(pool, 8,
                            arrivals(ArrivalKind::kUniform, 1000.0), 3);
  expect_same_stream(drain(noisy), drain(clean));
}

TEST(NoisySensorSource, SeededCorruptionIsReplayableAndSeedSensitive) {
  const data::Dataset pool = tiny_pool(4);
  NoisySensorSource::Noise noise;
  noise.gaussian_stddev = 0.08;
  NoisySensorSource a(replay(pool, 8, 3), noise, 111);
  NoisySensorSource b(replay(pool, 8, 3), noise, 111);
  NoisySensorSource c(replay(pool, 8, 3), noise, 222);

  const std::vector<Frame> sa = drain(a);
  expect_same_stream(sa, drain(b));    // same seed -> same corruption
  const std::vector<Frame> sa2 = drain(a);
  expect_same_stream(sa, sa2);         // reset -> same corruption again

  const std::vector<Frame> sc = drain(c);
  ASSERT_EQ(sa.size(), sc.size());
  bool any_differs = false;
  for (std::size_t i = 0; i < sa.size(); ++i) {
    any_differs |= sa[i].pixels != sc[i].pixels;
  }
  EXPECT_TRUE(any_differs) << "noise must depend on the decorator seed";

  // And it is actually noise: the corrupted stream differs from the clean
  // one but stays in [0,1].
  DatasetReplaySource clean(pool, 8,
                            arrivals(ArrivalKind::kUniform, 1000.0), 3);
  const std::vector<Frame> sclean = drain(clean);
  bool differs_from_clean = false;
  for (std::size_t i = 0; i < sa.size(); ++i) {
    differs_from_clean |= sa[i].pixels != sclean[i].pixels;
    for (const float p : sa[i].pixels) {
      EXPECT_GE(p, 0.0f);
      EXPECT_LE(p, 1.0f);
    }
  }
  EXPECT_TRUE(differs_from_clean);
}

TEST(NoisySensorSource, SaltAndPepperSticksPixelsToTheRails) {
  const data::Dataset pool = tiny_pool(2);
  NoisySensorSource::Noise noise;
  noise.salt_pepper_prob = 0.25;
  NoisySensorSource noisy(replay(pool, 4, 3), noise, 7);
  long railed = 0, total = 0;
  for (const Frame& f : drain(noisy)) {
    for (const float p : f.pixels) {
      railed += (p == 0.0f || p == 1.0f) ? 1 : 0;
      ++total;
    }
  }
  // ~25% defective plus naturally-black background: well over a quarter.
  EXPECT_GT(railed, total / 4);
}

TEST(NoisySensorSource, AdcFaultsStayOnTheAdcGrid) {
  const data::Dataset pool = tiny_pool(2);
  NoisySensorSource::Noise noise;
  noise.adc_ber = 0.05;
  noise.adc_bits = 6;
  NoisySensorSource noisy(replay(pool, 4, 3), noise, 7);
  const double full = 63.0;
  bool any_fault = false;
  DatasetReplaySource clean(pool, 4,
                            arrivals(ArrivalKind::kUniform, 1000.0), 3);
  const std::vector<Frame> sclean = drain(clean);
  const std::vector<Frame> snoisy = drain(noisy);
  for (std::size_t i = 0; i < snoisy.size(); ++i) {
    any_fault |= snoisy[i].pixels != sclean[i].pixels;
    for (const float p : snoisy[i].pixels) {
      const double level = static_cast<double>(p) * full;
      EXPECT_NEAR(level, std::round(level), 1e-3)
          << "faulted pixel left the 6-bit ADC grid";
    }
  }
  EXPECT_TRUE(any_fault);
}

TEST(NoisySensorSource, ValidatesParameters) {
  const data::Dataset pool = tiny_pool(2);
  NoisySensorSource::Noise bad;
  bad.adc_bits = 0;
  EXPECT_THROW(NoisySensorSource(replay(pool, 2, 1), bad, 1),
               std::invalid_argument);
  bad = NoisySensorSource::Noise{};
  bad.salt_pepper_prob = 1.5;
  EXPECT_THROW(NoisySensorSource(replay(pool, 2, 1), bad, 1),
               std::invalid_argument);
  EXPECT_THROW(NoisySensorSource(nullptr, NoisySensorSource::Noise{}, 1),
               std::invalid_argument);
}

// ------------------------------------------------------ Backpressure: block

TEST(SensorSession, BlockPolicyDeliversEveryFrameBitIdentically) {
  const data::Dataset pool = tiny_pool(8);
  auto backend = make_engine_backend();

  constexpr long kFrames = 40;
  DatasetReplaySource source(pool, kFrames,
                             arrivals(ArrivalKind::kPoisson, 2000.0), 17);
  const std::vector<runtime::Prediction> reference =
      classify_stream(*backend, source);

  runtime::ServerConfig server_cfg;
  server_cfg.max_batch = 4;
  server_cfg.max_delay_us = 200;
  server_cfg.queue_capacity = 4;  // tiny queue: admission pressure is real
  runtime::Server server(*backend, server_cfg);

  SessionConfig cfg;
  cfg.policy = BackpressurePolicy::kBlock;
  cfg.recent_max_age_ms = 50;
  SensorSession session(source, server, cfg);
  session.start();
  const StreamStats stats = session.finish();

  EXPECT_EQ(stats.produced, kFrames);
  EXPECT_EQ(stats.submitted, kFrames);
  EXPECT_EQ(stats.delivered, kFrames);
  EXPECT_EQ(stats.dropped, 0);
  EXPECT_EQ(stats.degraded, 0);
  EXPECT_EQ(stats.failed, 0);
  EXPECT_EQ(stats.labeled, kFrames);
  EXPECT_GT(stats.e2e_ms.percentile(50), 0.0);
  EXPECT_GT(stats.energy_j, 0.0);

  ASSERT_EQ(session.outcomes().size(), static_cast<std::size_t>(kFrames));
  for (const SessionOutcome& o : session.outcomes()) {
    EXPECT_EQ(o.predicted,
              reference[static_cast<std::size_t>(o.sequence)].label)
        << "frame " << o.sequence
        << ": stream path must be bit-identical to direct classify";
    EXPECT_FALSE(o.degraded);
  }

  // The latency histogram holds exactly the delivered frames' latencies:
  // its exact moments match the per-frame outcomes bit for bit.
  EXPECT_EQ(stats.e2e_ms.count(), static_cast<std::uint64_t>(kFrames));
  double sum_ms = 0.0;
  double min_ms = session.outcomes().front().e2e_ms;
  double max_ms = min_ms;
  for (const SessionOutcome& o : session.outcomes()) {
    sum_ms += o.e2e_ms;
    min_ms = std::min(min_ms, o.e2e_ms);
    max_ms = std::max(max_ms, o.e2e_ms);
  }
  EXPECT_EQ(stats.e2e_ms.sum_ms(), sum_ms);
  EXPECT_EQ(stats.e2e_ms.min_ms(), min_ms);
  EXPECT_EQ(stats.e2e_ms.max_ms(), max_ms);
  // The registry exports that histogram, labeled with the backend's name.
  obs::MetricsRegistry registry;
  session.register_metrics(registry, "s");
  EXPECT_NE(registry.prometheus().find(
                "scbnn_session_e2e_latency_ms_count{model=\"sc-proposed\","
                "session=\"s\"} 40\n"),
            std::string::npos);

  // The recent-latency window ages out on a quiescent stream, so a past
  // burst can never hold a supervisor's latency trigger hot.
  std::this_thread::sleep_for(std::chrono::milliseconds(80));
  EXPECT_EQ(session.recent_p99_ms(), 0.0);
}

// ------------------------------------------------ Backpressure: drop-oldest

TEST(SensorSession, DropOldestShedsFramesAndBoundsLatency) {
  const data::Dataset pool = tiny_pool(4);
  auto inner = make_engine_backend();
  auto backend = std::make_shared<SlowServable>(
      inner, std::chrono::microseconds(3000));

  constexpr long kFrames = 60;
  // ~100us between arrivals vs ~3ms+ service: sustained 30x overload.
  DatasetReplaySource source(pool, kFrames,
                             arrivals(ArrivalKind::kUniform, 10000.0), 23);
  const std::vector<runtime::Prediction> reference =
      classify_stream(*inner, source);

  runtime::ServerConfig server_cfg;
  server_cfg.max_batch = 1;  // one slow frame per dispatch
  server_cfg.max_delay_us = 0;
  server_cfg.queue_capacity = 2;
  runtime::Server server(*backend, server_cfg);

  SessionConfig cfg;
  cfg.policy = BackpressurePolicy::kDropOldest;
  cfg.max_pending = 3;
  SensorSession session(source, server, cfg);
  session.start();
  const StreamStats stats = session.finish();

  EXPECT_EQ(stats.produced, kFrames);
  EXPECT_GT(stats.dropped, 0) << "30x overload must shed frames";
  EXPECT_EQ(stats.delivered + stats.dropped + stats.failed, kFrames);
  EXPECT_EQ(stats.degraded, 0);  // dropping sheds frames, not precision
  // Everything that survived was really served, with the arithmetic of a
  // direct classify.
  EXPECT_EQ(static_cast<long>(session.outcomes().size()), stats.delivered);
  for (const SessionOutcome& o : session.outcomes()) {
    EXPECT_EQ(o.predicted,
              reference[static_cast<std::size_t>(o.sequence)].label)
        << "frame " << o.sequence;
  }
}

// ---------------------------------------------------- Backpressure: degrade

TEST(SensorSession, DegradePolicyShedsPrecisionAndSupervisorRecovers) {
  const data::Dataset pool = tiny_pool(4);
  // margin 1.0: every frame escalates as far as the cap allows, so rung
  // caps are visible in bits_used.
  auto adaptive = make_adaptive_backend(1.0);
  auto backend = std::make_shared<SlowServable>(
      adaptive, std::chrono::microseconds(2000));
  ASSERT_EQ(backend->max_rung(), 1);

  constexpr long kFrames = 80;
  DatasetReplaySource source(pool, kFrames,
                             arrivals(ArrivalKind::kUniform, 20000.0), 29);
  // References for both operating points: the full ladder for frames
  // served undegraded, the cheap rung alone for frames served under cap 0.
  const std::vector<runtime::Prediction> full =
      classify_stream(*adaptive, source);
  adaptive->set_max_rung(0);
  const std::vector<runtime::Prediction> capped =
      classify_stream(*adaptive, source);
  adaptive->set_max_rung(runtime::Servable::kUncappedRung);

  runtime::ServerConfig server_cfg;
  server_cfg.max_batch = 4;
  server_cfg.max_delay_us = 100;
  server_cfg.queue_capacity = 64;
  runtime::Server server(*backend, server_cfg);

  SessionConfig cfg;
  cfg.policy = BackpressurePolicy::kDegrade;
  SensorSession session(source, server, cfg);

  SupervisorConfig sup_cfg;
  sup_cfg.high_inflight = 6;
  sup_cfg.low_inflight = 2;
  sup_cfg.hold_ticks = 2;
  sup_cfg.tick_us = 500;
  StreamSupervisor supervisor(backend, sup_cfg);
  supervisor.watch(&session);
  supervisor.start();

  session.start();
  const StreamStats stats = session.finish();

  // The spike forced degradation...
  EXPECT_EQ(stats.delivered, kFrames) << "degrade never sheds frames";
  EXPECT_EQ(stats.dropped, 0);
  EXPECT_GT(stats.degraded, 0) << "20x overload must trigger the supervisor";
  EXPECT_LT(stats.min_rung_cap_seen, 1);
  EXPECT_FALSE(supervisor.events().empty());
  EXPECT_LT(supervisor.min_cap_seen(), supervisor.full_rung());
  // Degrading changes which rung answers, never a rung's arithmetic:
  // every frame matches a direct classify at the cap it was served under,
  // so a capped frame exits at the cheap rung's precision.
  ASSERT_EQ(session.outcomes().size(), static_cast<std::size_t>(kFrames));
  for (const SessionOutcome& o : session.outcomes()) {
    const runtime::Prediction& ref =
        (o.degraded ? capped : full)[static_cast<std::size_t>(o.sequence)];
    EXPECT_EQ(o.predicted, ref.label) << "frame " << o.sequence;
    EXPECT_EQ(o.bits_used, ref.bits_used) << "frame " << o.sequence;
  }

  // ...and with the stream idle, the control loop must walk the cap back
  // to the full ladder on its own.
  const auto deadline =
      runtime::ServeClock::now() + std::chrono::seconds(5);
  while (supervisor.cap() < supervisor.full_rung() &&
         runtime::ServeClock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  EXPECT_EQ(supervisor.cap(), supervisor.full_rung())
      << "cap must recover after the load spike subsides";
  EXPECT_EQ(backend->max_rung(), supervisor.full_rung());
  supervisor.stop();
}

// --------------------------------------------------------- queue depth view

TEST(ServerQueueDepth, TracksWaitingRequestsAndDrains) {
  const data::Dataset pool = tiny_pool(4);
  auto backend = std::make_shared<SlowServable>(
      make_engine_backend(), std::chrono::microseconds(10000));

  runtime::ServerConfig server_cfg;
  server_cfg.max_batch = 1;  // one slow frame per dispatch: a queue forms
  server_cfg.max_delay_us = 0;
  server_cfg.queue_capacity = 16;
  runtime::Server server(*backend, server_cfg);
  EXPECT_EQ(server.queue_depth(), 0u);

  std::vector<std::future<runtime::Prediction>> futures;
  for (int i = 0; i < 6; ++i) {
    futures.push_back(server.submit(pool.images.data()));
  }
  // With ~10ms per dispatched frame, the later submissions must be
  // observably parked in the admission queue.
  std::size_t deepest = 0;
  const auto deadline =
      runtime::ServeClock::now() + std::chrono::seconds(5);
  while (deepest == 0 && runtime::ServeClock::now() < deadline) {
    deepest = std::max(deepest, server.queue_depth());
  }
  EXPECT_GE(deepest, 1u);

  for (auto& f : futures) (void)f.get();
  EXPECT_EQ(server.queue_depth(), 0u);
}

// ---------------------------------------------------------- Supervisor unit

TEST(StreamSupervisor, DegradesStepwiseAndRecoversWithHysteresis) {
  auto ladder = std::make_shared<FakeLadder>(2);
  SupervisorConfig cfg;
  cfg.high_inflight = 10;
  cfg.low_inflight = 2;
  cfg.hold_ticks = 3;
  StreamSupervisor supervisor(ladder, cfg);
  FakeSignal signal;
  supervisor.watch(&signal);
  ASSERT_EQ(supervisor.full_rung(), 2);

  // Overload: one rung per tick, floored at 0.
  signal.set(50);
  supervisor.tick();
  EXPECT_EQ(supervisor.cap(), 1);
  EXPECT_EQ(ladder->max_rung(), 1);
  supervisor.tick();
  EXPECT_EQ(supervisor.cap(), 0);
  supervisor.tick();
  EXPECT_EQ(supervisor.cap(), 0);  // floor holds
  EXPECT_EQ(supervisor.min_cap_seen(), 0);

  // Between the watermarks: hold, and keep resetting the calm counter.
  signal.set(5);
  for (int i = 0; i < 6; ++i) supervisor.tick();
  EXPECT_EQ(supervisor.cap(), 0);

  // Calm: each recovery step needs hold_ticks consecutive calm ticks.
  signal.set(1);
  supervisor.tick();
  supervisor.tick();
  EXPECT_EQ(supervisor.cap(), 0);  // 2 < hold_ticks
  supervisor.tick();
  EXPECT_EQ(supervisor.cap(), 1);
  supervisor.tick();
  supervisor.tick();
  supervisor.tick();
  EXPECT_EQ(supervisor.cap(), 2);
  EXPECT_EQ(ladder->max_rung(), 2);
  supervisor.tick();
  EXPECT_EQ(supervisor.cap(), 2);  // full ladder is the ceiling

  // A calm streak interrupted by a hot tick must start over.
  signal.set(50);
  supervisor.tick();
  EXPECT_EQ(supervisor.cap(), 1);
  signal.set(1);
  supervisor.tick();
  supervisor.tick();
  signal.set(5);  // between watermarks: resets the streak
  supervisor.tick();
  signal.set(1);
  supervisor.tick();
  supervisor.tick();
  EXPECT_EQ(supervisor.cap(), 1);  // streak restarted, not yet recovered
  supervisor.tick();
  EXPECT_EQ(supervisor.cap(), 2);

  // The event log saw every change, most recent last.
  const std::vector<SupervisorEvent> events = supervisor.events();
  ASSERT_FALSE(events.empty());
  for (const SupervisorEvent& e : events) {
    EXPECT_EQ(std::abs(e.new_cap - e.old_cap), 1);
  }
}

TEST(StreamSupervisor, LatencyTriggerDegradesEvenWhenQueueIsShallow) {
  auto ladder = std::make_shared<FakeLadder>(1);
  SupervisorConfig cfg;
  cfg.high_inflight = 100;
  cfg.low_inflight = 10;
  cfg.high_p99_ms = 5.0;
  cfg.hold_ticks = 1;
  StreamSupervisor supervisor(ladder, cfg);
  FakeSignal signal;
  supervisor.watch(&signal);

  signal.set(0, 50.0);  // shallow queue, terrible tail latency
  supervisor.tick();
  EXPECT_EQ(supervisor.cap(), 0);

  signal.set(0, 1.0);
  supervisor.tick();
  EXPECT_EQ(supervisor.cap(), 1);
}

TEST(StreamSupervisor, StopRestoresTheFullLadder) {
  auto ladder = std::make_shared<FakeLadder>(2);
  SupervisorConfig cfg;
  cfg.high_inflight = 10;
  cfg.low_inflight = 2;
  StreamSupervisor supervisor(ladder, cfg);
  FakeSignal signal;
  supervisor.watch(&signal);
  signal.set(100);
  supervisor.tick();
  supervisor.tick();
  ASSERT_EQ(ladder->max_rung(), 0);
  supervisor.stop();
  EXPECT_EQ(ladder->max_rung(), 2);
  EXPECT_EQ(supervisor.min_cap_seen(), 0);  // history survives stop()
}

// ------------------------------------------------------------- validation

TEST(SensorStreamConfig, Validates) {
  SessionConfig session_cfg;
  session_cfg.max_pending = 0;
  EXPECT_THROW(session_cfg.validate(), std::invalid_argument);

  SupervisorConfig sup_cfg;
  sup_cfg.low_inflight = 64;
  sup_cfg.high_inflight = 64;
  EXPECT_THROW(sup_cfg.validate(), std::invalid_argument);
  EXPECT_THROW(StreamSupervisor(nullptr, SupervisorConfig{}),
               std::invalid_argument);
}

}  // namespace
}  // namespace scbnn::sensor
