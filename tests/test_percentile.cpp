// Percentile helper tests: the edge cases every latency report depends on
// (empty and single samples, ties, interpolation between ranks, clamped p)
// and the mergeable LatencyHistogram — in particular that merging per-shard
// histograms answers percentiles within one bucket width of pooling the raw
// samples, which is what licenses the fleet's cross-process p99s.
#include "runtime/percentile.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <random>
#include <vector>

namespace scbnn::runtime {
namespace {

TEST(Percentile, EmptySampleYieldsZero) {
  const std::vector<double> empty;
  EXPECT_EQ(percentile(empty, 0.0), 0.0);
  EXPECT_EQ(percentile(empty, 50.0), 0.0);
  EXPECT_EQ(percentile(empty, 99.0), 0.0);
}

TEST(Percentile, SingleSampleIsEveryPercentile) {
  const std::vector<double> one = {3.25};
  EXPECT_EQ(percentile(one, 0.0), 3.25);
  EXPECT_EQ(percentile(one, 50.0), 3.25);
  EXPECT_EQ(percentile(one, 99.0), 3.25);
  EXPECT_EQ(percentile(one, 100.0), 3.25);
}

TEST(Percentile, AllTiesYieldTheTiedValue) {
  const std::vector<double> ties(17, 7.5);
  EXPECT_EQ(percentile(ties, 1.0), 7.5);
  EXPECT_EQ(percentile(ties, 50.0), 7.5);
  EXPECT_EQ(percentile(ties, 99.0), 7.5);
}

TEST(Percentile, InterpolatesBetweenRanks) {
  const std::vector<double> sorted = {0.0, 10.0};
  EXPECT_DOUBLE_EQ(percentile(sorted, 0.0), 0.0);
  EXPECT_DOUBLE_EQ(percentile(sorted, 50.0), 5.0);
  EXPECT_DOUBLE_EQ(percentile(sorted, 75.0), 7.5);
  EXPECT_DOUBLE_EQ(percentile(sorted, 100.0), 10.0);
}

TEST(Percentile, ExactRanksOfAnOddSample) {
  const std::vector<double> sorted = {1.0, 2.0, 3.0, 4.0, 5.0};
  EXPECT_DOUBLE_EQ(percentile(sorted, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(percentile(sorted, 25.0), 2.0);
  EXPECT_DOUBLE_EQ(percentile(sorted, 50.0), 3.0);
  EXPECT_DOUBLE_EQ(percentile(sorted, 100.0), 5.0);
}

TEST(Percentile, OutOfRangePIsClamped) {
  const std::vector<double> sorted = {1.0, 2.0, 3.0};
  EXPECT_DOUBLE_EQ(percentile(sorted, -5.0), 1.0);
  EXPECT_DOUBLE_EQ(percentile(sorted, 250.0), 3.0);
}

TEST(Percentile, PartialTiesPlateau) {
  // Half the sample is tied at 2.0: the median sits inside the plateau.
  const std::vector<double> sorted = {1.0, 2.0, 2.0, 2.0, 9.0, 10.0};
  EXPECT_DOUBLE_EQ(percentile(sorted, 50.0), 2.0);
}

// One bucket width in relative terms: adjacent bucket edges are a factor of
// 2^(1/kBucketsPerOctave) apart.
constexpr double kBucketWidthFactor = 1.0905077326652577;  // 2^(1/8)

TEST(LatencyHistogram, EmptyIsAllZero) {
  const LatencyHistogram h;
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.percentile(50.0), 0.0);
  EXPECT_EQ(h.min_ms(), 0.0);
  EXPECT_EQ(h.max_ms(), 0.0);
  EXPECT_EQ(h.mean_ms(), 0.0);
}

TEST(LatencyHistogram, SingleSampleIsEveryPercentile) {
  LatencyHistogram h;
  h.record(3.25);
  EXPECT_EQ(h.count(), 1u);
  EXPECT_DOUBLE_EQ(h.min_ms(), 3.25);
  EXPECT_DOUBLE_EQ(h.max_ms(), 3.25);
  // With one sample the interpolation edges clamp to min == max.
  EXPECT_DOUBLE_EQ(h.percentile(0.0), 3.25);
  EXPECT_DOUBLE_EQ(h.percentile(50.0), 3.25);
  EXPECT_DOUBLE_EQ(h.percentile(100.0), 3.25);
}

TEST(LatencyHistogram, BucketGridIsMonotoneAndCoversTheRange) {
  EXPECT_EQ(LatencyHistogram::bucket_of(0.0), 0);
  EXPECT_EQ(LatencyHistogram::bucket_of(LatencyHistogram::kMinMs / 2), 0);
  EXPECT_EQ(LatencyHistogram::bucket_of(1e9),
            LatencyHistogram::kBuckets - 1);
  int prev = 0;
  for (double ms = LatencyHistogram::kMinMs; ms < 1e5; ms *= 1.05) {
    const int b = LatencyHistogram::bucket_of(ms);
    EXPECT_GE(b, prev);
    EXPECT_LT(b, LatencyHistogram::kBuckets);
    // The sample lies inside its bucket's [floor, next floor) span.
    EXPECT_GE(ms, LatencyHistogram::bucket_floor_ms(b) * (1.0 - 1e-12));
    if (b + 1 < LatencyHistogram::kBuckets) {
      EXPECT_LT(ms, LatencyHistogram::bucket_floor_ms(b + 1) *
                        (1.0 + 1e-12));
    }
    prev = b;
  }
}

TEST(LatencyHistogram, PercentileWithinOneBucketWidthOfExact) {
  std::mt19937_64 rng(99);
  std::lognormal_distribution<double> lat(1.5, 0.9);  // ~ms-scale tail
  LatencyHistogram h;
  std::vector<double> samples;
  for (int i = 0; i < 4000; ++i) {
    const double ms = lat(rng);
    h.record(ms);
    samples.push_back(ms);
  }
  std::sort(samples.begin(), samples.end());
  for (const double p : {10.0, 50.0, 90.0, 95.0, 99.0, 99.9}) {
    const double exact = percentile(samples, p);
    const double approx = h.percentile(p);
    EXPECT_LE(approx, exact * kBucketWidthFactor) << "p" << p;
    EXPECT_GE(approx, exact / kBucketWidthFactor) << "p" << p;
  }
}

TEST(LatencyHistogram, MergeEqualsPooledSamplesWithinOneBucketWidth) {
  // The fleet use case: shards record disjoint shares of one latency
  // population; merging their histograms must answer like pooling the raw
  // samples. The merged histogram is bit-identical to one fed all samples
  // (same grid, addition commutes), and both sit within one bucket width
  // of the exact pooled-sample percentile.
  std::mt19937_64 rng(7);
  std::lognormal_distribution<double> fast(0.5, 0.4);
  std::lognormal_distribution<double> slow(2.5, 0.7);
  LatencyHistogram shard_a;
  LatencyHistogram shard_b;
  LatencyHistogram pooled_hist;
  std::vector<double> pooled;
  for (int i = 0; i < 1500; ++i) {
    const double a = fast(rng);
    const double b = slow(rng);
    shard_a.record(a);
    shard_b.record(b);
    pooled_hist.record(a);
    pooled_hist.record(b);
    pooled.push_back(a);
    pooled.push_back(b);
  }
  std::sort(pooled.begin(), pooled.end());

  LatencyHistogram merged = shard_a;
  merged.merge(shard_b);
  EXPECT_EQ(merged.count(), pooled.size());
  EXPECT_DOUBLE_EQ(merged.min_ms(), pooled.front());
  EXPECT_DOUBLE_EQ(merged.max_ms(), pooled.back());
  EXPECT_DOUBLE_EQ(merged.sum_ms(), shard_a.sum_ms() + shard_b.sum_ms());

  for (const double p : {25.0, 50.0, 90.0, 99.0}) {
    // Merging loses nothing vs recording everything into one histogram...
    EXPECT_DOUBLE_EQ(merged.percentile(p), pooled_hist.percentile(p))
        << "p" << p;
    // ...and the histogram answer tracks the exact pooled samples within
    // one bucket width.
    const double exact = percentile(pooled, p);
    EXPECT_LE(merged.percentile(p), exact * kBucketWidthFactor) << "p" << p;
    EXPECT_GE(merged.percentile(p), exact / kBucketWidthFactor) << "p" << p;
  }
}

TEST(LatencyHistogram, MergingAnEmptyHistogramIsIdentity) {
  LatencyHistogram h;
  h.record(1.0);
  h.record(2.0);
  const double before = h.percentile(50.0);
  LatencyHistogram empty;
  h.merge(empty);
  EXPECT_EQ(h.count(), 2u);
  EXPECT_DOUBLE_EQ(h.percentile(50.0), before);

  LatencyHistogram onto_empty;
  onto_empty.merge(h);
  EXPECT_EQ(onto_empty.count(), 2u);
  EXPECT_DOUBLE_EQ(onto_empty.min_ms(), 1.0);
  EXPECT_DOUBLE_EQ(onto_empty.max_ms(), 2.0);
}

}  // namespace
}  // namespace scbnn::runtime
