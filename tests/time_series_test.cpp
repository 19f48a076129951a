#include "metrics/time_series.h"

#include <gtest/gtest.h>

namespace ntier::metrics {
namespace {

using sim::SimTime;

TEST(TimeSeries, AggregatesIntoCorrectWindows) {
  TimeSeries s(SimTime::millis(50));
  s.record(SimTime::millis(10), 2.0);
  s.record(SimTime::millis(49), 4.0);
  s.record(SimTime::millis(50), 6.0);  // next window
  ASSERT_EQ(s.num_windows(), 2u);
  EXPECT_EQ(s.count(0), 2);
  EXPECT_DOUBLE_EQ(s.sum(0), 6.0);
  EXPECT_DOUBLE_EQ(s.avg(0), 3.0);
  EXPECT_DOUBLE_EQ(s.min(0), 2.0);
  EXPECT_DOUBLE_EQ(s.max(0), 4.0);
  EXPECT_EQ(s.count(1), 1);
  EXPECT_DOUBLE_EQ(s.avg(1), 6.0);
}

TEST(TimeSeries, RejectsNonPositiveWindow) {
  // A zero window would be integer divide-by-zero UB in the bin index.
  EXPECT_THROW(TimeSeries{SimTime{}}, std::invalid_argument);
  EXPECT_THROW(TimeSeries{SimTime::millis(-50)}, std::invalid_argument);
  EXPECT_THROW(GaugeSeries{SimTime{}}, std::invalid_argument);
  EXPECT_THROW(GaugeSeries{SimTime::millis(-1)}, std::invalid_argument);
}

TEST(TimeSeries, EmptyWindowsReadAsZero) {
  TimeSeries s(SimTime::millis(50));
  s.record(SimTime::millis(200), 1.0);
  EXPECT_EQ(s.num_windows(), 5u);
  EXPECT_EQ(s.count(2), 0);
  EXPECT_DOUBLE_EQ(s.avg(2), 0.0);
  EXPECT_DOUBLE_EQ(s.max(2), 0.0);
  EXPECT_EQ(s.count(100), 0);  // out of range is safe
}

TEST(TimeSeries, Totals) {
  TimeSeries s(SimTime::millis(10));
  for (int i = 0; i < 100; ++i) s.record(SimTime::millis(i), 1.5);
  EXPECT_EQ(s.total_count(), 100);
  EXPECT_DOUBLE_EQ(s.global_max(), 1.5);
}

TEST(TimeSeries, WindowStart) {
  TimeSeries s(SimTime::millis(50));
  EXPECT_EQ(s.window_start(3), SimTime::millis(150));
}

TEST(TimeSeries, NegativeTimestampThrows) {
  TimeSeries s(SimTime::millis(50));
  EXPECT_THROW(s.record(SimTime::millis(-1), 1.0), std::invalid_argument);
}

// ---------------------------------------------------------------------------

TEST(GaugeSeries, TimeWeightedAverage) {
  GaugeSeries g(SimTime::millis(100));
  g.set(SimTime::zero(), 10.0);
  g.set(SimTime::millis(50), 20.0);  // 10 for half, 20 for half
  g.finish(SimTime::millis(100));
  EXPECT_DOUBLE_EQ(g.time_avg(0), 15.0);
  EXPECT_DOUBLE_EQ(g.max(0), 20.0);
}

TEST(GaugeSeries, ValueCarriesAcrossWindows) {
  GaugeSeries g(SimTime::millis(100));
  g.set(SimTime::zero(), 7.0);
  g.finish(SimTime::millis(350));
  for (std::size_t i = 0; i < 3; ++i) {
    EXPECT_DOUBLE_EQ(g.time_avg(i), 7.0) << i;
    EXPECT_DOUBLE_EQ(g.max(i), 7.0) << i;
  }
}

TEST(GaugeSeries, SpikeWithinWindowIsVisibleInMax) {
  GaugeSeries g(SimTime::millis(100));
  g.set(SimTime::zero(), 0.0);
  g.set(SimTime::millis(40), 100.0);  // spike for 10 ms
  g.set(SimTime::millis(50), 0.0);
  g.finish(SimTime::millis(100));
  EXPECT_DOUBLE_EQ(g.max(0), 100.0);
  EXPECT_DOUBLE_EQ(g.time_avg(0), 10.0);  // 100 * 0.1
}

TEST(GaugeSeries, AddAccumulatesDeltas) {
  GaugeSeries g(SimTime::millis(100));
  g.add(SimTime::zero(), 5.0);
  g.add(SimTime::millis(10), 3.0);
  g.add(SimTime::millis(20), -2.0);
  EXPECT_DOUBLE_EQ(g.current(), 6.0);
  g.finish(SimTime::millis(100));
  EXPECT_DOUBLE_EQ(g.max(0), 8.0);
}

TEST(GaugeSeries, BackwardsTimeThrows) {
  GaugeSeries g(SimTime::millis(100));
  g.set(SimTime::millis(50), 1.0);
  EXPECT_THROW(g.set(SimTime::millis(40), 2.0), std::invalid_argument);
}

TEST(GaugeSeries, GlobalMax) {
  GaugeSeries g(SimTime::millis(10));
  g.set(SimTime::zero(), 1.0);
  g.set(SimTime::millis(25), 9.0);
  g.set(SimTime::millis(35), 2.0);
  g.finish(SimTime::millis(50));
  EXPECT_DOUBLE_EQ(g.global_max(), 9.0);
}

TEST(GaugeSeries, UntouchedWindowsReportZeroMax) {
  GaugeSeries g(SimTime::millis(10));
  EXPECT_DOUBLE_EQ(g.max(3), 0.0);
  EXPECT_DOUBLE_EQ(g.time_avg(3), 0.0);
}

}  // namespace
}  // namespace ntier::metrics
