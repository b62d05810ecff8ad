#include "runtime/percentile.h"

#include <algorithm>
#include <cmath>
#include <cstddef>

namespace scbnn::runtime {

double percentile(const std::vector<double>& sorted, double p) {
  if (sorted.empty()) return 0.0;
  p = std::clamp(p, 0.0, 100.0);
  const double rank = p / 100.0 * static_cast<double>(sorted.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(rank);
  const std::size_t hi = std::min(lo + 1, sorted.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return sorted[lo] + (sorted[hi] - sorted[lo]) * frac;
}

// ---------------------------------------------------------- LatencyHistogram

int LatencyHistogram::bucket_of(double ms) noexcept {
  if (!(ms > kMinMs)) return 0;
  const int b = static_cast<int>(std::log2(ms / kMinMs) *
                                 static_cast<double>(kBucketsPerOctave));
  return std::clamp(b, 0, kBuckets - 1);
}

double LatencyHistogram::bucket_floor_ms(int b) noexcept {
  return kMinMs * std::exp2(static_cast<double>(b) /
                            static_cast<double>(kBucketsPerOctave));
}

void LatencyHistogram::record(double ms) noexcept {
  ms = std::max(ms, 0.0);
  ++counts_[static_cast<std::size_t>(bucket_of(ms))];
  if (count_ == 0 || ms < min_ms_) min_ms_ = ms;
  if (count_ == 0 || ms > max_ms_) max_ms_ = ms;
  ++count_;
  sum_ms_ += ms;
}

void LatencyHistogram::merge(const LatencyHistogram& other) noexcept {
  if (other.count_ == 0) return;
  for (int b = 0; b < kBuckets; ++b) {
    counts_[static_cast<std::size_t>(b)] +=
        other.counts_[static_cast<std::size_t>(b)];
  }
  if (count_ == 0 || other.min_ms_ < min_ms_) min_ms_ = other.min_ms_;
  if (count_ == 0 || other.max_ms_ > max_ms_) max_ms_ = other.max_ms_;
  count_ += other.count_;
  sum_ms_ += other.sum_ms_;
}

double LatencyHistogram::min_ms() const noexcept {
  return count_ > 0 ? min_ms_ : 0.0;
}

double LatencyHistogram::max_ms() const noexcept {
  return count_ > 0 ? max_ms_ : 0.0;
}

double LatencyHistogram::percentile(double p) const noexcept {
  if (count_ == 0) return 0.0;
  p = std::clamp(p, 0.0, 100.0);
  // Closest-rank target over the pooled counts, consistent with the sorted-
  // sample rule above: rank r in [0, count-1], then interpolate inside the
  // bucket that holds rank floor(r) by the fraction of that bucket's
  // samples below it.
  const double rank = p / 100.0 * static_cast<double>(count_ - 1);
  const auto target = static_cast<std::uint64_t>(rank);
  std::uint64_t seen = 0;
  for (int b = 0; b < kBuckets; ++b) {
    const std::uint64_t in_bucket = counts_[static_cast<std::size_t>(b)];
    if (in_bucket == 0) continue;
    if (seen + in_bucket > target) {
      // Interpolate position-within-bucket linearly between the bucket's
      // edges, clamped to the true observed extremes so a one-sample
      // histogram reports the sample, not a bucket edge.
      const double lo = std::max(b == 0 ? 0.0 : bucket_floor_ms(b), min_ms_);
      const double hi = std::min(bucket_floor_ms(b + 1), max_ms_);
      const double frac =
          (rank - static_cast<double>(seen) + 0.5) /
          static_cast<double>(in_bucket);
      return lo + (hi - lo) * std::clamp(frac, 0.0, 1.0);
    }
    seen += in_bucket;
  }
  return max_ms_;
}

}  // namespace scbnn::runtime
