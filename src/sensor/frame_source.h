// Sensor-stream frame sources for the near-sensor serving front end.
//
// The paper's system sits next to an image sensor and absorbs a continuous,
// noisy frame stream — not pre-batched tensors. A FrameSource models that
// stream: it yields 28x28 frames one at a time, each with a ground-truth
// label (when known) and the inter-arrival gap a real sensor would impose.
// Three concrete sources cover the regimes the serving stack must survive:
//
//   - DatasetReplaySource: replays a labeled dataset under a configurable
//     arrival process — Poisson (memoryless camera triggers), bursty
//     (on/off motion detection), or diurnal (slow sinusoidal load swings);
//   - DriftingCameraSource: renders synthetic digits through a camera whose
//     mount creeps — smooth sinusoidal translation and gain drift, the
//     distribution-shift regime;
//   - NoisySensorSource: a decorator that corrupts any inner source with
//     additive Gaussian read noise, salt-and-pepper defective pixels, and
//     per-pixel ADC word bit flips via sc::inject_word_faults — the harsh
//     environment the paper motivates SC with.
//
// Everything is deterministically seeded: the same (source config, seed)
// yields the same frames and the same gaps on every run and after every
// reset(), which is what makes the fleet tests' bit-identity checks and
// the replay tests possible.
#pragma once

#include <cstdint>
#include <memory>
#include <random>
#include <string>
#include <vector>

#include "data/dataset.h"
#include "sensor/arrival_schedule.h"

namespace scbnn::sensor {

/// One sensor frame: 28x28 pixels in [0,1] row-major, the ground-truth
/// label when the source knows it (-1 otherwise), a monotone sequence
/// number, and the arrival gap that precedes it.
struct Frame {
  std::vector<float> pixels;
  int label = -1;
  long sequence = 0;
  double gap_s = 0.0;  ///< inter-arrival gap before this frame (seconds)
};

class FrameSource {
 public:
  virtual ~FrameSource();

  /// Produce the next frame into `out`; false when the stream is
  /// exhausted (out is then untouched). Deterministic: after reset(), the
  /// same source yields the same frame sequence, gap for gap.
  virtual bool next(Frame& out) = 0;

  /// Rewind to the first frame.
  virtual void reset() = 0;

  [[nodiscard]] virtual std::string name() const = 0;

  /// Frames this source will emit in total, -1 when unbounded.
  [[nodiscard]] virtual long total_frames() const noexcept = 0;
};

/// Replay a labeled dataset as a stream: frames walk the dataset in order,
/// wrapping around, for `total_frames` frames, with gaps drawn from the
/// arrival model.
class DatasetReplaySource : public FrameSource {
 public:
  /// `dataset` is copied (a sensor keeps its own framebuffer). Throws
  /// std::invalid_argument on an empty dataset or total_frames < 1.
  DatasetReplaySource(data::Dataset dataset, long total_frames,
                      ArrivalConfig arrivals, std::uint64_t seed);

  bool next(Frame& out) override;
  void reset() override;
  [[nodiscard]] std::string name() const override;
  [[nodiscard]] long total_frames() const noexcept override {
    return total_frames_;
  }

 private:
  data::Dataset dataset_;
  long total_frames_;
  ArrivalSchedule arrivals_;
  long cursor_ = 0;
};

/// Pose/exposure drift parameters for DriftingCameraSource.
struct CameraDrift {
  double translate_px = 2.5;   ///< peak |dx|, |dy| of the sweep
  double gain_swing = 0.15;    ///< peak relative gain deviation
  long period_frames = 200;    ///< full drift cycle length
  /// translate_px >= 0, gain_swing in [0, 1), period_frames >= 1.
  const CameraDrift& validate() const;
};

/// Synthetic drifting camera: digits rendered through a mount that creeps.
/// Frame t shows digit (t % 10) translated by a slow sinusoidal sweep of
/// amplitude `translate_px` and scaled by a gain wobble of `gain_swing`
/// (auto-exposure creep), both with period `period_frames`. Bilinear
/// resampling keeps sub-pixel drift smooth; results clamp to [0,1].
class DriftingCameraSource : public FrameSource {
 public:
  DriftingCameraSource(long total_frames, ArrivalConfig arrivals,
                       std::uint64_t seed, CameraDrift drift = {});

  bool next(Frame& out) override;
  void reset() override;
  [[nodiscard]] std::string name() const override;
  [[nodiscard]] long total_frames() const noexcept override {
    return total_frames_;
  }

 private:
  long total_frames_;
  ArrivalSchedule arrivals_;
  std::uint64_t seed_;
  CameraDrift drift_;
  long cursor_ = 0;
};

/// Harsh-environment decorator: corrupts every frame of an inner source.
/// Per-frame corruption is seeded by (seed, frame.sequence), so a replayed
/// stream corrupts identically — noise is part of the stream's identity,
/// not of the run.
class NoisySensorSource : public FrameSource {
 public:
  struct Noise {
    double gaussian_stddev = 0.0;    ///< additive read noise, sigma in [0,1]
    double salt_pepper_prob = 0.0;   ///< per-pixel defect probability
    /// Per-bit flip probability of each pixel's ADC output word — the
    /// paper's near-sensor soft-error model, applied with
    /// sc::inject_word_faults at `adc_bits` resolution.
    double adc_ber = 0.0;
    unsigned adc_bits = 8;
    /// Probabilities in [0,1], gaussian_stddev >= 0, adc_bits in [1,16].
    const Noise& validate() const;
  };

  NoisySensorSource(std::unique_ptr<FrameSource> inner, Noise noise,
                    std::uint64_t seed);

  bool next(Frame& out) override;
  void reset() override;
  [[nodiscard]] std::string name() const override;
  [[nodiscard]] long total_frames() const noexcept override {
    return inner_->total_frames();
  }

 private:
  void corrupt(Frame& frame) const;

  std::unique_ptr<FrameSource> inner_;
  Noise noise_;
  std::uint64_t seed_;
};

}  // namespace scbnn::sensor
