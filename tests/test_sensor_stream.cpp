// Sensor-stream source tests: deterministic frame sources and arrival
// schedules, and noisy-sensor decorator seeding.
#include "sensor/frame_source.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <memory>
#include <stdexcept>
#include <vector>

#include "data/synthetic_mnist.h"
#include "sensor/arrival_schedule.h"

namespace scbnn::sensor {
namespace {

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

// ------------------------------------------------------------ ArrivalModel

TEST(ArrivalModel, DeterministicPerSeedAndAcrossReset) {
  for (const ArrivalKind kind :
       {ArrivalKind::kUniform, ArrivalKind::kPoisson, ArrivalKind::kBursty,
        ArrivalKind::kDiurnal}) {
    ArrivalSchedule a(arrivals(kind, 500.0), 42);
    ArrivalSchedule b(arrivals(kind, 500.0), 42);
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
  ArrivalSchedule m(arrivals(ArrivalKind::kUniform, 250.0), 1);
  for (int i = 0; i < 10; ++i) EXPECT_DOUBLE_EQ(m.next_gap_s(), 1.0 / 250.0);
}

TEST(ArrivalModel, PoissonMeanRateIsRoughlyHonored) {
  ArrivalSchedule m(arrivals(ArrivalKind::kPoisson, 1000.0), 9);
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
  ArrivalSchedule m(cfg, 9);
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

}  // namespace
}  // namespace scbnn::sensor
