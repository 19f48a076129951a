#include "obs/telemetry.h"

#include <gtest/gtest.h>

#include <sstream>

#include "obs/trace.h"
#include "test_util.h"

namespace ntier::obs {
namespace {

using sim::SimTime;
using testing::ev;

TelemetryConfig enabled_config() {
  TelemetryConfig cfg;
  cfg.enabled = true;
  return cfg;
}

/// Fine windows per coarse window (50 ms into 1 s).
constexpr int kFinePerCoarse =
    static_cast<int>(kCoarseWindow.ns() / sim::kMetricWindow.ns());

TEST(MultiResTimeline, FineWindowsAccumulateStatsAndQuantiles) {
  MultiResTimeline tl(enabled_config());
  tl.record(SimTime::millis(10), 1.0);
  tl.record(SimTime::millis(20), 3.0);
  tl.record(SimTime::millis(60), 10.0);

  ASSERT_EQ(tl.fine_begin(), 0u);
  ASSERT_EQ(tl.fine_end(), 2u);
  const WindowStats* w0 = tl.fine_stats(0);
  ASSERT_NE(w0, nullptr);
  EXPECT_EQ(w0->count, 2);
  EXPECT_DOUBLE_EQ(w0->avg(), 2.0);
  EXPECT_DOUBLE_EQ(w0->max, 3.0);
  const WindowStats* w1 = tl.fine_stats(1);
  ASSERT_NE(w1, nullptr);
  EXPECT_EQ(w1->count, 1);
  // Per-window quantiles straight from the per-window sketch.
  EXPECT_NEAR(tl.fine_quantile(1, 0.5), 10.0, 0.02 * 10.0);
  EXPECT_EQ(tl.fine_stats(7), nullptr);  // unseen window
  EXPECT_EQ(tl.recorded(), 3u);
}

TEST(MultiResTimeline, FineWindowsRollUpIntoCoarse) {
  // Once kFineRetention windows are live, each new window evicts the oldest
  // into its coarse parent: one coarse window past the retention bound,
  // fine windows 0..19 have merged into coarse 0, preserving count/avg/max
  // and the mergeable sketch.
  MultiResTimeline tl(enabled_config());
  const int windows = static_cast<int>(kFineRetention) + kFinePerCoarse;
  for (int w = 0; w < windows; ++w)
    tl.record(SimTime::millis(w * 50 + 10), static_cast<double>(w));

  EXPECT_EQ(tl.fine_begin(), static_cast<std::size_t>(kFinePerCoarse));
  EXPECT_EQ(tl.fine_end(), static_cast<std::size_t>(windows));
  ASSERT_GE(tl.coarse_end(), 1u);
  const WindowStats* c0 = tl.coarse_stats(0);
  ASSERT_NE(c0, nullptr);
  EXPECT_EQ(c0->count, kFinePerCoarse);  // fine windows 0..19
  EXPECT_DOUBLE_EQ(c0->avg(), (kFinePerCoarse - 1) / 2.0);
  EXPECT_DOUBLE_EQ(c0->max, kFinePerCoarse - 1.0);
  const DDSketch* cs = tl.coarse_sketch(0);
  ASSERT_NE(cs, nullptr);
  EXPECT_EQ(cs->count(), static_cast<std::uint64_t>(kFinePerCoarse));
  // The run-level totals cover everything ever recorded.
  EXPECT_EQ(tl.totals().count, windows);
  EXPECT_EQ(tl.sketch().count(), static_cast<std::uint64_t>(windows));
}

TEST(MultiResTimeline, MemoryStaysBoundedAndDropsAreCounted) {
  // One sample per second for 100 s longer than the fine and coarse
  // retention together: the deques never exceed their bounds, and
  // evictions past the coarse bound are counted rather than accumulated.
  MultiResTimeline tl(enabled_config());
  const int seconds = static_cast<int>(kCoarseRetention) + 60 + 100;
  for (int i = 0; i < seconds; ++i) {
    tl.record(SimTime::seconds(i), 1.0);
    EXPECT_LE(tl.fine_end() - tl.fine_begin(), kFineRetention);
    EXPECT_LE(tl.coarse_end() - tl.coarse_begin(), kCoarseRetention);
  }
  EXPECT_GT(tl.coarse_dropped(), 0u);
  EXPECT_EQ(tl.totals().count, seconds);  // totals survive every eviction
}

TEST(MultiResTimeline, LateSampleIsClampedIntoTheOldestLiveWindow) {
  MultiResTimeline tl(enabled_config());
  tl.record(SimTime::millis(1'000), 5.0);  // window 20
  tl.record(SimTime::millis(0), 7.0);      // long past: clamps to window 20's
                                           // live region, not a crash
  const WindowStats* oldest = tl.fine_stats(tl.fine_begin());
  ASSERT_NE(oldest, nullptr);
  EXPECT_EQ(oldest->count, 2);
}

TEST(TelemetryRegistry, GetOrCreateReturnsStablePointers) {
  TelemetryRegistry reg(enabled_config());
  Instrument& a = reg.instrument("client.rt_ms", Tier::kClient);
  Instrument& again = reg.instrument("client.rt_ms", Tier::kClient);
  EXPECT_EQ(&a, &again);
  EXPECT_EQ(reg.size(), 1u);
  reg.instrument("tomcat0.iowait", Tier::kTomcat, 0);
  EXPECT_EQ(reg.size(), 2u);
  EXPECT_EQ(reg.find("client.rt_ms"), &a);
  EXPECT_EQ(reg.find("missing"), nullptr);

  // Iteration (and therefore CSV export) is in name order.
  std::vector<std::string> names;
  reg.for_each([&](const Instrument& ins) { names.push_back(ins.name()); });
  ASSERT_EQ(names.size(), 2u);
  EXPECT_EQ(names[0], "client.rt_ms");
  EXPECT_EQ(names[1], "tomcat0.iowait");
}

TEST(TelemetryRegistry, CsvCarriesPerWindowQuantileColumns) {
  TelemetryRegistry reg(enabled_config());
  Instrument& ins = reg.instrument("client.rt_ms");
  for (int i = 0; i < 100; ++i)
    ins.record(SimTime::millis(10 + i % 3), 10.0 + i);

  std::ostringstream os;
  reg.to_csv(os);
  const std::string csv = os.str();
  EXPECT_EQ(csv.rfind("instrument,window_start_s,width_s,count,avg,max,p50,"
                      "p95,p99\n",
                      0),
            0u);
  EXPECT_NE(csv.find("client.rt_ms,0,0.05,100,"), std::string::npos);
  // Exports are byte-deterministic.
  std::ostringstream os2;
  reg.to_csv(os2);
  EXPECT_EQ(csv, os2.str());
}

TEST(TelemetryFeed, MapsTheEventStreamOntoTheStandardInstruments) {
  TelemetryRegistry reg(enabled_config());
  TelemetryFeed feed(reg, /*num_tomcats=*/2);
  TraceConfig tc;
  tc.ring = false;  // pure event bus
  TraceCollector bus(tc);
  bus.add_sink(&feed);

  // Successful and failed completions: only aux == 0 lands in rt_ms.
  bus.push(ev(10, EventKind::kClientDone, Tier::kClient, 0, 5, 1, 120.0, 0));
  bus.push(ev(11, EventKind::kClientDone, Tier::kClient, 0, 6, 2, 9'000.0, 2));
  bus.push(ev(12, EventKind::kSynRetransmit, Tier::kClient, 0, 5, 3, 0.0, 1));
  // Balancer deltas rebuild tomcat1's committed queue: +1, +1, -1.
  bus.push(ev(20, EventKind::kGetEndpointAttempt, Tier::kBalancer, 0, 1, 4));
  bus.push(ev(21, EventKind::kGetEndpointAttempt, Tier::kBalancer, 0, 1, 5));
  bus.push(ev(22, EventKind::kEndpointRelease, Tier::kBalancer, 0, 1, 4));
  // Out-of-range worker / non-tomcat iowait are ignored, valid one lands.
  bus.push(ev(23, EventKind::kGetEndpointAttempt, Tier::kBalancer, 0, 9, 6));
  bus.push(ev(30, EventKind::kIoWait, Tier::kMysql, 0, -1, 0, 0.9));
  bus.push(ev(31, EventKind::kIoWait, Tier::kTomcat, 1, -1, 0, 0.75));

  const Instrument* rt = reg.find("client.rt_ms");
  ASSERT_NE(rt, nullptr);
  EXPECT_EQ(rt->timeline().totals().count, 1);
  EXPECT_DOUBLE_EQ(rt->timeline().totals().max, 120.0);

  const Instrument* retx = reg.find("client.syn_retransmit");
  ASSERT_NE(retx, nullptr);
  EXPECT_EQ(retx->timeline().totals().count, 1);

  const Instrument* committed = reg.find("tomcat1.committed");
  ASSERT_NE(committed, nullptr);
  EXPECT_EQ(committed->timeline().totals().count, 3);
  EXPECT_DOUBLE_EQ(committed->timeline().totals().max, 2.0);

  const Instrument* iowait = reg.find("tomcat1.iowait");
  ASSERT_NE(iowait, nullptr);
  EXPECT_EQ(iowait->timeline().totals().count, 1);
  EXPECT_DOUBLE_EQ(iowait->timeline().totals().max, 0.75);
  EXPECT_EQ(reg.find("tomcat0.iowait")->timeline().totals().count, 0);
}

}  // namespace
}  // namespace ntier::obs
