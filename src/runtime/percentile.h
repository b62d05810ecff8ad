// Latency percentile helpers shared by the serving layer and the benches.
//
// One definition of "p99" for the whole repo: linear interpolation between
// closest ranks over a sorted sample (the same rule NumPy's default and the
// previous bench-local helper used), so a percentile perfbench reports is
// comparable to one the examples print.
#pragma once

#include <array>
#include <cstdint>
#include <vector>

namespace scbnn::runtime {

/// Interpolated percentile of an ascending-sorted sample. `p` is in
/// [0, 100]; an empty sample yields 0.0, a single sample yields that value
/// for every p. The input must already be sorted — callers that batch many
/// queries sort once.
[[nodiscard]] double percentile(const std::vector<double>& sorted, double p);

/// Mergeable fixed-log-bucket latency histogram.
///
/// Per-shard p99s cannot be averaged into a fleet p99 — percentiles only
/// compose through the underlying distribution. This histogram is the
/// mergeable representation: every process records into the same fixed
/// bucket grid (log-spaced, so resolution is relative error, not absolute),
/// merge() adds counts bucket by bucket, and percentile() answers from the
/// merged counts exactly as if every sample had been pooled — up to one
/// bucket width (~9% relative), which the unit tests pin down.
///
/// The grid is compile-time fixed (no per-instance configuration) so any
/// two histograms in the repo are mergeable by construction, and the struct
/// is trivially copyable so a shard can publish one in shared memory.
class LatencyHistogram {
 public:
  /// Bucket grid: kBucketsPerOctave log2-spaced buckets per factor of two,
  /// spanning [kMinMs, kMinMs * 2^(kBuckets/kBucketsPerOctave)) — 1us to
  /// ~4.4 minutes at 8 buckets/octave. Samples below the range land in
  /// bucket 0, above it in the last bucket (and saturate max_ms truthfully
  /// via the tracked true min/max).
  static constexpr double kMinMs = 1e-3;
  static constexpr int kBucketsPerOctave = 8;
  static constexpr int kBuckets = 224;

  /// Record one latency sample (milliseconds; negatives clamp to 0).
  void record(double ms) noexcept;

  /// Add `other`'s counts into this histogram (same fixed grid).
  void merge(const LatencyHistogram& other) noexcept;

  /// Interpolated percentile (p in [0,100]) from the bucket counts: finds
  /// the bucket holding the target rank and interpolates linearly inside
  /// it. Empty histogram yields 0. Error vs the pooled-sample percentile
  /// is bounded by one bucket width.
  [[nodiscard]] double percentile(double p) const noexcept;

  [[nodiscard]] std::uint64_t count() const noexcept { return count_; }
  [[nodiscard]] double min_ms() const noexcept;
  [[nodiscard]] double max_ms() const noexcept;
  /// Sum of recorded samples (exact, for mean computation).
  [[nodiscard]] double sum_ms() const noexcept { return sum_ms_; }
  [[nodiscard]] double mean_ms() const noexcept {
    return count_ > 0 ? sum_ms_ / static_cast<double>(count_) : 0.0;
  }

  /// Raw count in bucket `b` (0 outside the grid) — the Prometheus
  /// exporter folds these into cumulative le-buckets.
  [[nodiscard]] std::uint64_t bucket_count(int b) const noexcept {
    return (b >= 0 && b < kBuckets) ? counts_[static_cast<std::size_t>(b)]
                                    : 0;
  }

  /// Bucket index a sample falls into (exposed for the bucket-width bound
  /// in tests).
  [[nodiscard]] static int bucket_of(double ms) noexcept;
  /// Lower edge of bucket `b` in ms.
  [[nodiscard]] static double bucket_floor_ms(int b) noexcept;

 private:
  std::array<std::uint64_t, kBuckets> counts_{};
  std::uint64_t count_ = 0;
  double sum_ms_ = 0.0;
  double min_ms_ = 0.0;  ///< valid when count_ > 0
  double max_ms_ = 0.0;
};

}  // namespace scbnn::runtime
