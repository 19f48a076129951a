#include "metrics/sampler.h"

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "sim/simulation.h"

namespace ntier::metrics {
namespace {

using sim::SimTime;

TEST(PeriodicSampler, SamplesOnTheConfiguredInterval) {
  sim::Simulation simu;
  std::vector<SimTime> starts;
  PeriodicSampler s(simu, SimTime::millis(50),
                    [&](SimTime window_start) { starts.push_back(window_start); });
  simu.run_until(SimTime::millis(501));
  ASSERT_EQ(starts.size(), 10u);
  // The t=50ms tick measured the [0, 50ms) interval: window 0's start.
  EXPECT_EQ(starts[0], SimTime::zero());
  EXPECT_EQ(starts[1], SimTime::millis(50));
}

TEST(PeriodicSampler, FinalProbeAtRunEndLandsInTheLastWindow) {
  // A run of duration D with interval w has windows [0, D/w). The tick that
  // fires exactly at t = D measures window D/w - 1 and must be handed that
  // window's start — not one past the run that no consumer reads.
  sim::Simulation simu;
  TimeSeries series(SimTime::millis(50));
  int calls = 0;
  PeriodicSampler s(simu, SimTime::millis(50), [&](SimTime window_start) {
    series.record(window_start, static_cast<double>(++calls));
  });
  simu.run_until(SimTime::millis(500));  // events at exactly t=500ms fire
  EXPECT_EQ(calls, 10);
  ASSERT_EQ(series.num_windows(), 10u);  // windows 0..9, none past the run
  EXPECT_EQ(series.count(9), 1);
  EXPECT_DOUBLE_EQ(series.avg(9), 10.0);
  EXPECT_EQ(series.total_count(), 10);
}

TEST(PeriodicSampler, DestructionCancelsThePendingProbe) {
  // Teardown ordering: a sampler's callback typically captures raw pointers
  // into sibling objects (servers, the trace collector). Destroying the
  // sampler must cancel its in-flight event, so the simulation can keep
  // running without the callback firing into freed state.
  sim::Simulation simu;
  int calls = 0;
  auto s = std::make_unique<PeriodicSampler>(simu, SimTime::millis(50),
                                             [&](SimTime) { ++calls; });
  simu.run_until(SimTime::millis(120));
  EXPECT_EQ(calls, 2);
  s.reset();  // callback target dies here
  EXPECT_FALSE(simu.pending());  // the armed event was cancelled
  simu.run_until(SimTime::millis(500));
  EXPECT_EQ(calls, 2);  // and never fired
}

TEST(PeriodicSampler, SamplerOutlivedBySimulationThenDestroyedFirst) {
  // The Experiment owns its sampler and the simulation in one object; member
  // order means the sampler dies before the simulation. Exercise exactly
  // that sequence: sampler destroyed first, simulation destroyed after, with
  // the cancellation happening against a simulation that still holds queued
  // events from other sources.
  auto simu = std::make_unique<sim::Simulation>();
  bool other_fired = false;
  simu->after(SimTime::millis(400), [&] { other_fired = true; });
  {
    std::vector<SimTime> starts;
    PeriodicSampler s(*simu, SimTime::millis(100),
                      [&](SimTime window_start) { starts.push_back(window_start); });
    simu->run_until(SimTime::millis(250));
    // The t=200ms tick measured window 1.
    EXPECT_EQ(starts, (std::vector<SimTime>{SimTime::zero(), SimTime::millis(100)}));
  }  // sampler destroyed; its pending event cancelled
  simu->run_until(SimTime::millis(500));
  EXPECT_TRUE(other_fired);
  simu.reset();  // no dangling sampler events left behind
}

}  // namespace
}  // namespace ntier::metrics
