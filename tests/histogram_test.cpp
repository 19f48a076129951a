#include "metrics/histogram.h"

#include <gtest/gtest.h>

#include <cmath>

namespace ntier::metrics {
namespace {

TEST(LatencyHistogram, CountsAndMean) {
  LatencyHistogram h;
  h.record(1.0);
  h.record(2.0);
  h.record(3.0);
  EXPECT_EQ(h.count(), 3);
  EXPECT_DOUBLE_EQ(h.mean(), 2.0);
  EXPECT_DOUBLE_EQ(h.min_recorded(), 1.0);
  EXPECT_DOUBLE_EQ(h.max_recorded(), 3.0);
}

TEST(LatencyHistogram, PercentileWithinBucketResolution) {
  LatencyHistogram h;
  for (int i = 1; i <= 1000; ++i) h.record(static_cast<double>(i));
  // 20 buckets/decade => bucket ratio 10^(1/20) ≈ 1.122.
  EXPECT_NEAR(h.percentile(50), 500.0, 500.0 * 0.13);
  EXPECT_NEAR(h.percentile(99), 990.0, 990.0 * 0.13);
  EXPECT_NEAR(h.percentile(0), 1.0, 0.2);
}

TEST(LatencyHistogram, VlrtAndNormalFractions) {
  LatencyHistogram h;
  for (int i = 0; i < 90; ++i) h.record(5.0);     // normal (<10ms)
  for (int i = 0; i < 5; ++i) h.record(100.0);    // middle
  for (int i = 0; i < 5; ++i) h.record(2000.0);   // VLRT (>1000ms)
  EXPECT_EQ(h.count_above(1000.0), 5);
  EXPECT_NEAR(h.fraction_above(1000.0), 0.05, 1e-9);
  EXPECT_NEAR(h.fraction_below(10.0), 0.90, 1e-9);
}

TEST(LatencyHistogram, StraddlingBucketThresholdIsAPartition) {
  // Regression: a threshold strictly inside a bucket (1500 ms is not a
  // boundary of the default 20-buckets/decade grid) used to drop the whole
  // straddling bucket from BOTH count_above and fraction_below, so samples
  // recorded at ~1500 ms vanished from either side.
  LatencyHistogram h;
  for (int i = 0; i < 90; ++i) h.record(5.0);
  for (int i = 0; i < 10; ++i) h.record(1500.0);  // inside [1412.5, 1584.9)
  EXPECT_EQ(h.count_above(1500.0), 10);  // exact: the straddled bucket counts
  EXPECT_NEAR(h.fraction_above(1500.0), 0.10, 1e-12);
  EXPECT_NEAR(h.fraction_below(1500.0), 0.90, 1e-12);
  // Above/below partition the samples at any threshold.
  EXPECT_NEAR(h.fraction_above(1500.0) + h.fraction_below(1500.0), 1.0, 1e-12);
  EXPECT_NEAR(h.fraction_above(777.0) + h.fraction_below(777.0), 1.0, 1e-12);
}

TEST(LatencyHistogram, PartitionHoldsAcrossManyThresholds) {
  LatencyHistogram h;
  for (int i = 1; i <= 1000; ++i) h.record(static_cast<double>(i));
  for (double t : {0.05, 0.9, 1.0, 9.7, 10.0, 123.4, 999.9, 1000.0, 5e4, 2e5}) {
    EXPECT_NEAR(h.fraction_above(t) + h.fraction_below(t), 1.0, 1e-12)
        << "threshold " << t;
  }
}

TEST(LatencyHistogram, ClampsOutOfRangeValues) {
  LatencyHistogram h(0.1, 1000.0, 10);
  h.record(0.0001);
  h.record(1e9);
  EXPECT_EQ(h.count(), 2);
  EXPECT_GT(h.bucket_count(0), 0);
  EXPECT_GT(h.bucket_count(h.num_buckets() - 1), 0);
}

TEST(LatencyHistogram, BucketBoundsAreGeometric) {
  LatencyHistogram h(1.0, 1000.0, 10);
  const double r = h.bucket_upper(0) / h.bucket_lower(0);
  EXPECT_NEAR(r, std::pow(10.0, 0.1), 1e-9);
  EXPECT_NEAR(h.bucket_lower(10), 10.0, 1e-9);  // one decade
}

TEST(LatencyHistogram, MergeCombines) {
  LatencyHistogram a, b;
  a.record(1.0);
  b.record(100.0);
  b.record(2000.0);
  a.merge(b);
  EXPECT_EQ(a.count(), 3);
  EXPECT_EQ(a.count_above(1000.0), 1);
  EXPECT_DOUBLE_EQ(a.min_recorded(), 1.0);
  EXPECT_DOUBLE_EQ(a.max_recorded(), 2000.0);
}

TEST(LatencyHistogram, MergeRejectsIncompatible) {
  LatencyHistogram a(0.1, 1000.0, 10), b(0.1, 1000.0, 20);
  EXPECT_THROW(a.merge(b), std::invalid_argument);
}

TEST(LatencyHistogram, EmptyHistogramIsSane) {
  LatencyHistogram h;
  EXPECT_EQ(h.count(), 0);
  EXPECT_DOUBLE_EQ(h.mean(), 0.0);
  EXPECT_DOUBLE_EQ(h.percentile(99), 0.0);
  EXPECT_DOUBLE_EQ(h.fraction_above(1000.0), 0.0);
  EXPECT_DOUBLE_EQ(h.fraction_below(10.0), 0.0);
}

TEST(LatencyHistogram, RejectsBadConstruction) {
  EXPECT_THROW(LatencyHistogram(-1.0, 10.0, 10), std::invalid_argument);
  EXPECT_THROW(LatencyHistogram(10.0, 1.0, 10), std::invalid_argument);
  EXPECT_THROW(LatencyHistogram(1.0, 10.0, 0), std::invalid_argument);
}

TEST(LatencyHistogram, PercentileRejectsOutOfRangeP) {
  LatencyHistogram h;
  h.record(1.0);
  EXPECT_THROW(h.percentile(-1), std::invalid_argument);
  EXPECT_THROW(h.percentile(101), std::invalid_argument);
}

}  // namespace
}  // namespace ntier::metrics
