#include "metrics/telemetry.h"

#include <gtest/gtest.h>

#include <memory>
#include <sstream>
#include <stdexcept>

#include "experiment/experiment.h"
#include "obs/trace.h"
#include "test_util.h"
#include "workload/rubbos.h"
#include "workload/trace.h"

namespace ntier::metrics {
namespace {

using obs::EventKind;
using obs::Tier;
using obs::testing::ev;
using sim::SimTime;

/// Lines of `csv` that start with `prefix`.
int rows_starting_with(const std::string& csv, const std::string& prefix) {
  int n = 0;
  std::istringstream is(csv);
  for (std::string line; std::getline(is, line);)
    if (line.rfind(prefix, 0) == 0) ++n;
  return n;
}

TEST(TelemetryInstrument, WindowsAccumulateCountAvgMax) {
  TelemetryRegistry reg;
  Instrument& ins = reg.instrument("client.syn_retransmit");
  ins.record(SimTime::millis(10), 1.0);
  ins.record(SimTime::millis(20), 3.0);
  ins.record(SimTime::millis(60), 10.0);

  const TimeSeries& s = ins.series();
  EXPECT_EQ(s.window(), sim::kMetricWindow);
  ASSERT_EQ(s.num_windows(), 2u);
  EXPECT_EQ(s.count(0), 2);
  EXPECT_DOUBLE_EQ(s.avg(0), 2.0);
  EXPECT_DOUBLE_EQ(s.max(0), 3.0);
  EXPECT_EQ(s.count(1), 1);
  EXPECT_DOUBLE_EQ(s.max(1), 10.0);
  EXPECT_EQ(s.count(7), 0);  // unseen window
  EXPECT_EQ(s.total_count(), 3);
}

TEST(TelemetryInstrument, LateSampleLandsInItsOwnWindow) {
  // Every window of the run stays addressable, so a sample older than the
  // newest window is kept where it belongs rather than clamped forward.
  TelemetryRegistry reg;
  Instrument& ins = reg.instrument("tomcat0.iowait");
  ins.record(SimTime::millis(1'000), 5.0);  // window 20
  ins.record(SimTime::millis(0), 7.0);      // window 0
  EXPECT_EQ(ins.series().count(0), 1);
  EXPECT_EQ(ins.series().count(20), 1);
}

TEST(TelemetryInstrument, ViewReadsItsSourceSeries) {
  TimeSeries source(sim::kMetricWindow);
  TelemetryRegistry reg;
  reg.add_view("client.rt_ms", source);
  source.record(SimTime::millis(70), 12.0);  // after the view was made
  const Instrument* rt = reg.find("client.rt_ms");
  ASSERT_NE(rt, nullptr);
  EXPECT_EQ(&rt->series(), &source);
  EXPECT_EQ(rt->series().count(1), 1);
  EXPECT_EQ(reg.size(), 1u);
  EXPECT_THROW(reg.add_view("client.rt_ms", source), std::invalid_argument);
}

TEST(TelemetryRegistry, GetOrCreateReturnsStablePointers) {
  TelemetryRegistry reg;
  Instrument& a = reg.instrument("client.rt_ms");
  Instrument& again = reg.instrument("client.rt_ms");
  EXPECT_EQ(&a, &again);
  EXPECT_EQ(reg.size(), 1u);
  reg.instrument("tomcat0.iowait");
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

TEST(TelemetryRegistry, CsvCarriesOneRowPerNonEmptyWindow) {
  TelemetryRegistry reg;
  Instrument& ins = reg.instrument("client.rt_ms");
  for (int i = 0; i < 100; ++i)
    ins.record(SimTime::millis(10 + i % 3), 10.0 + i);
  ins.record(SimTime::millis(260), 4.0);  // window 5; windows 1..4 empty

  std::ostringstream os;
  reg.to_csv(os);
  const std::string csv = os.str();
  EXPECT_EQ(csv, "instrument,window_start_s,width_s,count,avg,max\n"
                 "client.rt_ms,0,0.05,100,59.5,109\n"
                 "client.rt_ms,0.25,0.05,1,4,4\n");
  // Exports are byte-deterministic.
  std::ostringstream os2;
  reg.to_csv(os2);
  EXPECT_EQ(csv, os2.str());
}

TEST(TelemetryFeed, MapsTheEventStreamOntoTheStandardInstruments) {
  TelemetryRegistry reg;
  TelemetryFeed feed(reg, /*num_tomcats=*/2);
  obs::TraceConfig tc;
  tc.ring = false;  // pure event bus
  obs::TraceCollector bus(tc);
  bus.add_sink(&feed);

  // Completions are the request log's to record, not the feed's.
  bus.push(ev(10, EventKind::kClientDone, Tier::kClient, 0, 5, 1, 120.0, 0));
  bus.push(ev(12, EventKind::kSynRetransmit, Tier::kClient, 0, 5, 3, 0.0, 1));
  // Balancer deltas rebuild tomcat1's committed queue: +1, +1, -1.
  bus.push(ev(20, EventKind::kGetEndpointAttempt, Tier::kBalancer, 0, 1, 4));
  bus.push(ev(21, EventKind::kGetEndpointAttempt, Tier::kBalancer, 0, 1, 5));
  bus.push(ev(22, EventKind::kEndpointRelease, Tier::kBalancer, 0, 1, 4));
  // Out-of-range worker / non-tomcat iowait are ignored, valid one lands.
  bus.push(ev(23, EventKind::kGetEndpointAttempt, Tier::kBalancer, 0, 9, 6));
  bus.push(ev(30, EventKind::kIoWait, Tier::kMysql, 0, -1, 0, 0.9));
  bus.push(ev(31, EventKind::kIoWait, Tier::kTomcat, 1, -1, 0, 0.75));

  EXPECT_EQ(reg.find("client.rt_ms"), nullptr);

  const Instrument* retx = reg.find("client.syn_retransmit");
  ASSERT_NE(retx, nullptr);
  EXPECT_EQ(retx->series().total_count(), 1);

  const Instrument* committed = reg.find("tomcat1.committed");
  ASSERT_NE(committed, nullptr);
  EXPECT_EQ(committed->series().total_count(), 3);
  EXPECT_DOUBLE_EQ(committed->series().global_max(), 2.0);

  const Instrument* iowait = reg.find("tomcat1.iowait");
  ASSERT_NE(iowait, nullptr);
  EXPECT_EQ(iowait->series().total_count(), 1);
  EXPECT_DOUBLE_EQ(iowait->series().global_max(), 0.75);
  EXPECT_EQ(reg.find("tomcat0.iowait")->series().total_count(), 0);
}

TEST(TelemetryRegistry, ReplayRunReportsClientResponseTimes) {
  // A trace replay issues no client-population completions, so the rt rows
  // must come from the request log, which both drivers record into.
  auto trace = std::make_shared<workload::ArrivalTrace>();
  sim::Rng mix_rng(3);
  workload::RubbosWorkload w;
  for (int i = 0; i < 4'000; ++i)
    trace->add(SimTime::from_millis(1 + i * 0.5),  // 2 000 req/s for 2 s
               static_cast<std::uint32_t>(i % 997),
               static_cast<std::uint16_t>(w.next_interaction(mix_rng)));
  auto cfg = experiment::testing::quick_config(
      lb::PolicyKind::kCurrentLoad, lb::MechanismKind::kNonBlocking,
      /*millibottlenecks=*/false, SimTime::seconds(3));
  cfg.replay_trace = trace;
  cfg.warmup = SimTime::zero();
  cfg.telemetry.enabled = true;
  experiment::Experiment e(std::move(cfg));
  e.run();

  ASSERT_NE(e.telemetry(), nullptr);
  std::ostringstream os;
  e.telemetry()->to_csv(os);
  const TimeSeries& log_rt = e.log().response_time_series();
  int nonempty = 0;
  for (std::size_t i = 0; i < log_rt.num_windows(); ++i)
    if (log_rt.count(i)) ++nonempty;
  EXPECT_GT(nonempty, 30);
  EXPECT_EQ(rows_starting_with(os.str(), "client.rt_ms,"), nonempty);
}

}  // namespace
}  // namespace ntier::metrics
