#include "millib/injector.h"

#include <gtest/gtest.h>

#include "sim/simulation.h"

namespace ntier::millib {
namespace {

using sim::SimTime;
using sim::Simulation;

TEST(Injector, PeriodicStallsStealAndRestoreCapacity) {
  Simulation s;
  os::CpuResource cpu(s, 4);
  InjectorConfig cfg;
  cfg.period = SimTime::seconds(1);
  cfg.duration = SimTime::millis(100);
  cfg.severity = 1.0;
  cfg.initial_offset = SimTime::seconds(1);
  cfg.jitter = false;
  CapacityStallInjector inj(s, cpu, cfg);

  s.after(SimTime::millis(1050), [&] {
    EXPECT_DOUBLE_EQ(cpu.capacity_factor(), 0.0);
    EXPECT_TRUE(inj.stalled());
  });
  s.after(SimTime::millis(1150), [&] {
    EXPECT_DOUBLE_EQ(cpu.capacity_factor(), 1.0);
    EXPECT_FALSE(inj.stalled());
  });
  s.run_until(SimTime::from_seconds(5.5));
  // Stalls at 1.0, 2.1, 3.2, 4.3, 5.4; the last one ends exactly at the
  // 5.5 s horizon, so five episodes complete.
  EXPECT_EQ(inj.episodes().size(), 5u);
  for (const auto& e : inj.episodes())
    EXPECT_EQ((e.end - e.start), SimTime::millis(100));
}

TEST(Injector, PartialSeverity) {
  Simulation s;
  os::CpuResource cpu(s, 4);
  InjectorConfig cfg;
  cfg.severity = 0.6;
  cfg.initial_offset = SimTime::millis(10);
  cfg.duration = SimTime::millis(50);
  CapacityStallInjector inj(s, cpu, cfg);
  s.after(SimTime::millis(30), [&] {
    EXPECT_NEAR(cpu.capacity_factor(), 0.4, 1e-9);
  });
  s.run_until(SimTime::seconds(1));
  EXPECT_NEAR(cpu.capacity_factor(), 1.0, 1e-9);
  EXPECT_EQ(inj.episodes().size(), 1u);
}

TEST(Injector, JitterVariesGaps) {
  Simulation s;
  os::CpuResource cpu(s, 4);
  InjectorConfig cfg;
  cfg.period = SimTime::millis(200);
  cfg.duration = SimTime::millis(10);
  cfg.initial_offset = SimTime::zero();
  cfg.jitter = true;
  CapacityStallInjector inj(s, cpu, cfg);
  s.run_until(SimTime::seconds(5));
  ASSERT_GE(inj.episodes().size(), 10u);
  std::vector<double> gaps;
  for (std::size_t i = 1; i < inj.episodes().size(); ++i)
    gaps.push_back(
        (inj.episodes()[i].start - inj.episodes()[i - 1].end).to_seconds());
  double mn = gaps[0], mx = gaps[0];
  for (double g : gaps) {
    mn = std::min(mn, g);
    mx = std::max(mx, g);
  }
  EXPECT_LT(mn, mx);  // exponential gaps are not constant
}

TEST(Injector, ProfilesHaveDocumentedShapes) {
  const auto gc = gc_pause_profile();
  EXPECT_DOUBLE_EQ(gc.severity, 1.0);
  EXPECT_LT(gc.duration, SimTime::millis(200));

  const auto dvfs = dvfs_profile();
  EXPECT_LT(dvfs.severity, 1.0);

  const auto vm = vm_consolidation_profile();
  EXPECT_GT(vm.duration, dvfs.duration);
}

TEST(Injector, StallDelaysCpuJob) {
  Simulation s;
  os::CpuResource cpu(s, 1);
  InjectorConfig cfg;
  cfg.initial_offset = SimTime::millis(5);
  cfg.duration = SimTime::millis(100);
  CapacityStallInjector inj(s, cpu, cfg);
  SimTime done;
  cpu.submit(SimTime::millis(10), [&] { done = s.now(); });
  s.run_until(SimTime::seconds(1));
  // 5ms served, 100ms frozen, 5ms remaining.
  EXPECT_EQ(done, SimTime::millis(110));
}

}  // namespace
}  // namespace ntier::millib
