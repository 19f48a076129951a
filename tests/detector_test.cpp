#include "millib/detector.h"

#include <gtest/gtest.h>

namespace ntier::millib {
namespace {

using metrics::GaugeSeries;
using sim::SimTime;

GaugeSeries flat_with_spikes() {
  GaugeSeries g(SimTime::millis(50));
  g.set(SimTime::zero(), 5.0);  // steady short queue
  // Spike 1: 1.00-1.15 s, peak 300.
  g.set(SimTime::millis(1000), 300.0);
  g.set(SimTime::millis(1150), 5.0);
  // Spike 2: 3.00-3.05 s, peak 120.
  g.set(SimTime::millis(3000), 120.0);
  g.set(SimTime::millis(3050), 5.0);
  g.finish(SimTime::seconds(5));
  return g;
}

TEST(Detector, FindsBothSpikes) {
  const auto g = flat_with_spikes();
  MillibottleneckDetector det;
  const auto eps = det.detect(g);
  ASSERT_EQ(eps.size(), 2u);
  EXPECT_EQ(eps[0].start, SimTime::millis(1000));
  EXPECT_NEAR(eps[0].peak, 300.0, 1e-9);
  EXPECT_EQ(eps[1].start, SimTime::millis(3000));
  EXPECT_NEAR(eps[1].peak, 120.0, 1e-9);
}

TEST(Detector, ThresholdIsMedianBased) {
  const auto g = flat_with_spikes();
  MillibottleneckDetector det;
  EXPECT_NEAR(det.threshold_for(g), 25.0, 1e-9);  // median 5 × 5
}

TEST(Detector, QuietGaugeYieldsNothing) {
  GaugeSeries g(SimTime::millis(50));
  g.set(SimTime::zero(), 5.0);
  g.set(SimTime::seconds(1), 6.0);
  g.finish(SimTime::seconds(2));
  MillibottleneckDetector det;
  EXPECT_TRUE(det.detect(g).empty());
}

TEST(Detector, MinAbsoluteFiltersIdleNoise) {
  GaugeSeries g(SimTime::millis(50));
  g.set(SimTime::zero(), 0.0);
  g.set(SimTime::seconds(1), 3.0);  // "spike" of 3 on an idle gauge
  g.set(SimTime::millis(1050), 0.0);
  g.finish(SimTime::seconds(2));
  MillibottleneckDetector det;  // min_absolute = 10
  EXPECT_TRUE(det.detect(g).empty());
}

TEST(Detector, MergesSpikesAcrossShortGaps) {
  GaugeSeries g(SimTime::millis(50));
  g.set(SimTime::zero(), 5.0);
  g.set(SimTime::millis(1000), 200.0);
  g.set(SimTime::millis(1050), 5.0);   // one quiet window
  g.set(SimTime::millis(1100), 180.0);
  g.set(SimTime::millis(1150), 5.0);
  g.finish(SimTime::seconds(3));
  DetectorConfig cfg;
  cfg.merge_gap_windows = 1;
  const auto eps = MillibottleneckDetector(cfg).detect(g);
  ASSERT_EQ(eps.size(), 1u);
  EXPECT_NEAR(eps[0].peak, 200.0, 1e-9);
  EXPECT_EQ(eps[0].end, SimTime::millis(1150));
}

TEST(Detector, OverlapsAnyRespectsSlack) {
  SpikeEpisode e{SimTime::millis(1000), SimTime::millis(1100), 50.0};
  std::vector<std::pair<SimTime, SimTime>> truth = {
      {SimTime::millis(900), SimTime::millis(980)}};
  EXPECT_FALSE(overlaps_any(e, truth, SimTime::zero()));
  EXPECT_TRUE(overlaps_any(e, truth, SimTime::millis(50)));
  EXPECT_FALSE(overlaps_any(e, {}, SimTime::seconds(1)));
}

TEST(Detector, EmptyGaugeIsSafe) {
  GaugeSeries g(SimTime::millis(50));
  MillibottleneckDetector det;
  EXPECT_TRUE(det.detect(g).empty());
}

}  // namespace
}  // namespace ntier::millib
