#include "os/cpu.h"

#include <gtest/gtest.h>

#include <vector>

#include "sim/simulation.h"

namespace ntier::os {
namespace {

using sim::SimTime;
using sim::Simulation;

TEST(Cpu, SingleJobRunsAtFullSpeed) {
  Simulation s;
  CpuResource cpu(s, 4);
  SimTime done;
  cpu.submit(SimTime::millis(10), [&] { done = s.now(); });
  s.run();
  EXPECT_EQ(done, SimTime::millis(10));
}

TEST(Cpu, FewerJobsThanCoresDoNotShare) {
  Simulation s;
  CpuResource cpu(s, 4);
  std::vector<SimTime> done(3);
  for (int i = 0; i < 3; ++i)
    cpu.submit(SimTime::millis(10), [&, i] { done[static_cast<std::size_t>(i)] = s.now(); });
  s.run();
  for (const auto& t : done) EXPECT_EQ(t, SimTime::millis(10));
}

TEST(Cpu, ProcessorSharingBeyondCores) {
  Simulation s;
  CpuResource cpu(s, 1);
  // Two equal jobs on one core: each runs at rate 1/2, finishing together at 2×.
  std::vector<SimTime> done(2);
  for (int i = 0; i < 2; ++i)
    cpu.submit(SimTime::millis(10), [&, i] { done[static_cast<std::size_t>(i)] = s.now(); });
  s.run();
  EXPECT_EQ(done[0].ms(), 20);
  EXPECT_EQ(done[1].ms(), 20);
}

TEST(Cpu, ShorterJobLeavesFirstAndSpeedsUpSurvivor) {
  Simulation s;
  CpuResource cpu(s, 1);
  SimTime short_done, long_done;
  cpu.submit(SimTime::millis(10), [&] { short_done = s.now(); });
  cpu.submit(SimTime::millis(20), [&] { long_done = s.now(); });
  s.run();
  // Shared until short job accrues 10ms of service at rate 1/2 => t=20ms.
  EXPECT_EQ(short_done.ms(), 20);
  // Long job then has 10ms left at full speed => t=30ms.
  EXPECT_EQ(long_done.ms(), 30);
}

TEST(Cpu, LateArrivalSharesRemainder) {
  Simulation s;
  CpuResource cpu(s, 1);
  SimTime a_done, b_done;
  cpu.submit(SimTime::millis(10), [&] { a_done = s.now(); });
  s.after(SimTime::millis(5), [&] {
    cpu.submit(SimTime::millis(10), [&] { b_done = s.now(); });
  });
  s.run();
  // a: 5ms alone (5 served), then shares: needs 5 more at 1/2 => done at 15.
  EXPECT_EQ(a_done.ms(), 15);
  // b: from 5..15 gets 5ms of service, then alone: 5 left => done at 20.
  EXPECT_EQ(b_done.ms(), 20);
}

TEST(Cpu, CapacityFactorZeroFreezesProgress) {
  Simulation s;
  CpuResource cpu(s, 4);
  SimTime done;
  cpu.submit(SimTime::millis(10), [&] { done = s.now(); });
  s.after(SimTime::millis(5), [&] { cpu.set_capacity_factor(0.0); });
  s.after(SimTime::millis(105), [&] { cpu.set_capacity_factor(1.0); });
  s.run();
  // 5ms served, 100ms frozen, 5ms to finish.
  EXPECT_EQ(done.ms(), 110);
}

TEST(Cpu, PartialCapacitySlowsJobs) {
  Simulation s;
  CpuResource cpu(s, 1);
  cpu.set_capacity_factor(0.5);
  SimTime done;
  cpu.submit(SimTime::millis(10), [&] { done = s.now(); });
  s.run();
  EXPECT_EQ(done.ms(), 20);
}

TEST(Cpu, CancelStopsCallbackAndFreesShare) {
  Simulation s;
  CpuResource cpu(s, 1);
  bool cancelled_fired = false;
  SimTime done;
  const auto id = cpu.submit(SimTime::millis(10), [&] { cancelled_fired = true; });
  cpu.submit(SimTime::millis(10), [&] { done = s.now(); });
  s.after(SimTime::millis(2), [&] { EXPECT_TRUE(cpu.cancel(id)); });
  s.run();
  EXPECT_FALSE(cancelled_fired);
  // Survivor: 2ms shared (1 served) + 9 alone => 11ms total.
  EXPECT_EQ(done.ms(), 11);
  EXPECT_FALSE(cpu.cancel(id));  // double cancel
}

TEST(Cpu, StaleIdOfReusedSlotDoesNotCancelNewJob) {
  Simulation s;
  CpuResource cpu(s, 1);
  const auto old_id = cpu.submit(SimTime::millis(10), [] {});
  ASSERT_TRUE(cpu.cancel(old_id));
  SimTime done;
  const auto new_id = cpu.submit(SimTime::millis(10), [&] { done = s.now(); });
  // The new job took over the cancelled job's slot under a new generation.
  ASSERT_NE(new_id, old_id);
  ASSERT_EQ(static_cast<std::uint32_t>(new_id),
            static_cast<std::uint32_t>(old_id));
  EXPECT_FALSE(cpu.cancel(old_id));
  EXPECT_EQ(cpu.jobs_running(), 1u);
  s.run();
  EXPECT_EQ(done, SimTime::millis(10));
}

TEST(Cpu, EqualVirtualEndsCompleteInSubmitOrder) {
  Simulation s;
  CpuResource cpu(s, 1);
  // Cancelled jobs leave their slots on the free list, so the jobs below
  // get slots in descending order: only the submit sequence orders them.
  std::vector<CpuResource::JobId> scratch;
  for (int i = 0; i < 4; ++i) scratch.push_back(cpu.submit(SimTime::millis(1), [] {}));
  for (const auto id : scratch) ASSERT_TRUE(cpu.cancel(id));
  std::vector<int> order;
  for (int i = 0; i < 4; ++i)
    cpu.submit(SimTime::millis(10), [&order, i] { order.push_back(i); });
  s.run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3}));
  EXPECT_EQ(s.now(), SimTime::millis(40));
}

TEST(Cpu, WorkAccounting) {
  Simulation s;
  CpuResource cpu(s, 4);
  for (int i = 0; i < 3; ++i) cpu.submit(SimTime::millis(10), [] {});
  s.run();
  EXPECT_NEAR(cpu.work_done_core_seconds(), 0.030, 1e-9);
}

TEST(Cpu, UtilisationProbe) {
  Simulation s;
  CpuResource cpu(s, 4);
  cpu.submit(SimTime::millis(100), [] {});
  s.run_until(SimTime::millis(100));
  const auto p = cpu.probe_utilisation();
  // 1 job on 4 cores for the whole interval: 25% foreground, no stall.
  EXPECT_NEAR(p.foreground, 0.25, 1e-6);
  EXPECT_NEAR(p.stall, 0.0, 1e-9);
}

TEST(Cpu, StallShowsInProbe) {
  Simulation s;
  CpuResource cpu(s, 4);
  s.after(SimTime::millis(0), [&] { cpu.set_capacity_factor(0.03); });
  s.after(SimTime::millis(100), [&] { cpu.set_capacity_factor(1.0); });
  s.run_until(SimTime::millis(200));
  const auto p = cpu.probe_utilisation();
  EXPECT_NEAR(p.stall, 0.485, 0.01);  // (1-0.03)*100ms over 200ms
  EXPECT_NEAR(p.combined(), 0.485, 0.01);
}

TEST(Cpu, JobsRunningGauge) {
  Simulation s;
  CpuResource cpu(s, 2);
  cpu.submit(SimTime::millis(10), [] {});
  cpu.submit(SimTime::millis(10), [] {});
  EXPECT_EQ(cpu.jobs_running(), 2u);
  s.run();
  EXPECT_EQ(cpu.jobs_running(), 0u);
}

TEST(Cpu, ZeroDemandJobCompletesImmediately) {
  Simulation s;
  CpuResource cpu(s, 1);
  bool done = false;
  cpu.submit(SimTime::zero(), [&] { done = true; });
  s.run();
  EXPECT_TRUE(done);
  EXPECT_EQ(s.now(), SimTime::zero());
}

TEST(Cpu, RejectsInvalidArguments) {
  Simulation s;
  EXPECT_THROW(CpuResource(s, 0), std::invalid_argument);
  CpuResource cpu(s, 1);
  EXPECT_THROW(cpu.submit(SimTime::millis(-1), [] {}), std::invalid_argument);
  EXPECT_THROW(cpu.set_capacity_factor(1.5), std::invalid_argument);
  EXPECT_THROW(cpu.set_capacity_factor(-0.1), std::invalid_argument);
}

TEST(Cpu, SubmitDuringStallRunsAfterRecovery) {
  Simulation s;
  CpuResource cpu(s, 1);
  cpu.set_capacity_factor(0.0);
  SimTime done;
  cpu.submit(SimTime::millis(10), [&] { done = s.now(); });
  s.after(SimTime::millis(50), [&] { cpu.set_capacity_factor(1.0); });
  s.run();
  EXPECT_EQ(done.ms(), 60);
}

TEST(Cpu, ManyJobsConserveWork) {
  Simulation s;
  CpuResource cpu(s, 4);
  int completed = 0;
  const int n = 500;
  for (int i = 0; i < n; ++i) {
    s.after(SimTime::micros(i * 37), [&] {
      cpu.submit(SimTime::micros(100 + (completed % 7) * 13),
                 [&] { ++completed; });
    });
  }
  s.run();
  EXPECT_EQ(completed, n);
}

}  // namespace
}  // namespace ntier::os
