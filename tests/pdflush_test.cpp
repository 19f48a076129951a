#include "os/pdflush.h"

#include <gtest/gtest.h>

#include "os/node.h"
#include "sim/simulation.h"

namespace ntier::os {
namespace {

using sim::SimTime;
using sim::Simulation;

TEST(PageCache, TracksDirtyBytes) {
  Simulation s;
  PageCache pc(s);
  pc.write_dirty(1000);
  pc.write_dirty(500);
  EXPECT_EQ(pc.dirty_bytes(), 1500u);
  EXPECT_EQ(pc.total_written(), 1500u);
  EXPECT_EQ(pc.take_all_dirty(), 1500u);
  EXPECT_EQ(pc.dirty_bytes(), 0u);
  EXPECT_EQ(pc.total_written(), 1500u);
}

TEST(PageCache, ThresholdFiresOncePerCrossing) {
  Simulation s;
  PageCache pc(s);
  int fired = 0;
  pc.set_threshold(1000, [&] { ++fired; });
  pc.write_dirty(600);
  EXPECT_EQ(fired, 0);
  pc.write_dirty(600);  // crosses
  EXPECT_EQ(fired, 1);
  pc.write_dirty(600);  // still above: no re-fire
  EXPECT_EQ(fired, 1);
  pc.take_all_dirty();
  pc.write_dirty(1200);  // crosses again after reset
  EXPECT_EQ(fired, 2);
}

TEST(PageCache, TraceRecordsGauge) {
  Simulation s;
  PageCache pc(s);
  metrics::GaugeSeries dirty(SimTime::millis(10));
  pc.set_dirty_series(&dirty);
  pc.write_dirty(100);
  s.run_until(SimTime::millis(25));
  pc.write_dirty(200);
  dirty.finish(s.now());
  EXPECT_DOUBLE_EQ(dirty.max(0), 100.0);
  EXPECT_DOUBLE_EQ(dirty.max(2), 300.0);
}

class PdflushTest : public ::testing::Test {
 protected:
  NodeConfig make_config(SimTime interval, std::uint64_t threshold) {
    NodeConfig nc;
    nc.cores = 4;
    nc.disk_bytes_per_second = 1 << 20;  // 1 MB/s: easy math
    nc.pdflush.flush_interval = interval;
    nc.pdflush.dirty_background_bytes = threshold;
    nc.pdflush.cpu_stall_severity = 1.0;
    return nc;
  }
};

TEST_F(PdflushTest, PeriodicFlushDrainsDirtyPagesAndStallsCpu) {
  Simulation s;
  Node node(s, make_config(SimTime::seconds(5), 1ull << 30));
  node.page_cache().write_dirty(1 << 19);  // 512 KiB -> 0.5 s flush

  // A CPU job submitted just before the flush is frozen for its duration.
  SimTime done;
  s.after(SimTime::from_seconds(4.999), [&] {
    node.cpu().submit(SimTime::millis(1), [&] { done = s.now(); });
  });
  s.run_until(SimTime::seconds(8));

  ASSERT_EQ(node.pdflush().episodes().size(), 1u);
  const auto& e = node.pdflush().episodes()[0];
  EXPECT_EQ(e.start, SimTime::seconds(5));
  EXPECT_NEAR((e.end - e.start).to_seconds(), 0.5, 1e-6);
  EXPECT_EQ(node.page_cache().dirty_bytes(), 0u);
  // Job: 1ms ran for ~0.001 of its demand, then frozen until 5.5s.
  EXPECT_NEAR(done.to_seconds(), 5.5, 0.01);
}

TEST_F(PdflushTest, ThresholdTriggersImmediateFlush) {
  Simulation s;
  Node node(s, make_config(SimTime::seconds(600), 1 << 20));
  s.after(SimTime::seconds(1), [&] {
    node.page_cache().write_dirty((1 << 20) + 1024);  // cross threshold
  });
  s.run_until(SimTime::seconds(10));
  ASSERT_EQ(node.pdflush().episodes().size(), 1u);
  EXPECT_EQ(node.pdflush().episodes()[0].start, SimTime::seconds(1));
}

TEST_F(PdflushTest, DisabledDaemonNeverFlushes) {
  Simulation s;
  NodeConfig nc = make_config(SimTime::seconds(1), 1024);
  nc.pdflush.enabled = false;
  Node node(s, nc);
  node.page_cache().write_dirty(1 << 20);
  s.run_until(SimTime::seconds(10));
  EXPECT_TRUE(node.pdflush().episodes().empty());
  EXPECT_EQ(node.page_cache().dirty_bytes(), 1u << 20);
}

TEST_F(PdflushTest, EmptyCacheMeansNoEpisode) {
  Simulation s;
  Node node(s, make_config(SimTime::seconds(1), 1ull << 30));
  s.run_until(SimTime::seconds(5));
  EXPECT_TRUE(node.pdflush().episodes().empty());
}

TEST_F(PdflushTest, InitialOffsetStaggersFirstFlush) {
  Simulation s;
  NodeConfig nc = make_config(SimTime::seconds(5), 1ull << 30);
  nc.pdflush.initial_offset = SimTime::seconds(2);
  Node node(s, nc);
  node.page_cache().write_dirty(1024);
  s.run_until(SimTime::seconds(8));
  ASSERT_EQ(node.pdflush().episodes().size(), 1u);
  EXPECT_EQ(node.pdflush().episodes()[0].start, SimTime::seconds(7));
}

TEST_F(PdflushTest, BackToBackFlushWhenDirtyKeepsArriving) {
  Simulation s;
  Node node(s, make_config(SimTime::seconds(600), 1 << 20));
  // First crossing triggers a flush taking ~1s; during it another 2 MiB
  // arrives, exceeding the threshold again -> immediate follow-up flush.
  s.after(SimTime::seconds(1), [&] {
    node.page_cache().write_dirty((1 << 20) + 1024);
  });
  s.after(SimTime::from_seconds(1.5), [&] {
    node.page_cache().write_dirty(2 << 20);
  });
  s.run_until(SimTime::seconds(10));
  ASSERT_EQ(node.pdflush().episodes().size(), 2u);
  EXPECT_NEAR(node.pdflush().episodes()[1].start.to_seconds(),
              node.pdflush().episodes()[0].end.to_seconds(), 1e-6);
  EXPECT_EQ(node.page_cache().dirty_bytes(), 0u);
}

TEST_F(PdflushTest, CpuRecoverToPriorFactor) {
  Simulation s;
  NodeConfig nc = make_config(SimTime::seconds(5), 1ull << 30);
  nc.pdflush.cpu_stall_severity = 0.97;
  Node node(s, nc);
  node.cpu().set_capacity_factor(0.8);
  node.page_cache().write_dirty(1 << 19);
  s.run_until(SimTime::seconds(5));
  EXPECT_NEAR(node.cpu().capacity_factor(), 0.03, 1e-9);  // stalled
  s.run_until(SimTime::seconds(6));
  EXPECT_NEAR(node.cpu().capacity_factor(), 0.8, 1e-9);  // restored
}

}  // namespace
}  // namespace ntier::os
