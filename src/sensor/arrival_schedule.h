// Deterministic arrival processes for synthetic sensor load.
//
// Extracted from the frame sources so every load generator in the repo —
// DatasetReplaySource's stream gaps, perfbench's open-loop arrivals, and
// SessionStreamDriver's per-session schedules — draws inter-arrival
// times from one implementation with one seeding rule.
// The same (config, seed) produces the same gap sequence on every run and
// after every reset(), which is what perfbench's bitwise referee and the
// replay tests lean on.
#pragma once

#include <cstdint>
#include <random>
#include <string>

namespace scbnn::sensor {

namespace detail {

/// splitmix64 finalizer: decorrelates (seed, stream) pairs so per-frame
/// noise streams and arrival streams are independent of each other.
[[nodiscard]] constexpr std::uint64_t mix_seed(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

}  // namespace detail

/// Arrival-process shapes for sensor streams.
enum class ArrivalKind {
  kUniform,  ///< fixed gap 1/rate — a free-running rolling shutter
  kPoisson,  ///< exponential gaps — memoryless external triggers
  kBursty,   ///< on/off: dense bursts separated by long idle gaps
  kDiurnal,  ///< sinusoidal rate modulation — slow load swings
};

[[nodiscard]] std::string to_string(ArrivalKind kind);

struct ArrivalConfig {
  ArrivalKind kind = ArrivalKind::kPoisson;
  double rate_hz = 1000.0;  ///< long-run mean arrival rate

  // Bursty: bursts of `burst_len` frames arrive at `burst_rate_hz`
  // (0 = 4x rate_hz); idle gaps between bursts are exponential with the
  // mean that keeps the long-run rate at rate_hz.
  int burst_len = 16;
  double burst_rate_hz = 0.0;

  // Diurnal: instantaneous rate = rate_hz * (1 + swing * sin(2*pi *
  // frame / period_frames)); swing in [0, 1).
  double swing = 0.8;
  long period_frames = 256;

  /// rate_hz > 0, burst_len >= 1, burst_rate_hz >= 0, swing in [0, 1),
  /// period_frames >= 1. Throws std::invalid_argument naming the offending
  /// field; returns *this for initializer lists.
  const ArrivalConfig& validate() const;
};

/// Deterministic inter-arrival gap generator: the same (config, seed)
/// produces the same gap sequence; reset() rewinds it.
class ArrivalSchedule {
 public:
  ArrivalSchedule(ArrivalConfig config, std::uint64_t seed);

  /// The gap (seconds) before the next frame; advances the stream.
  [[nodiscard]] double next_gap_s();
  void reset();

  [[nodiscard]] const ArrivalConfig& config() const noexcept {
    return config_;
  }

 private:
  ArrivalConfig config_;
  std::uint64_t seed_;
  std::mt19937_64 rng_;
  long index_ = 0;     ///< frames emitted so far
  int burst_left_ = 0; ///< frames remaining in the current burst
};

}  // namespace scbnn::sensor
