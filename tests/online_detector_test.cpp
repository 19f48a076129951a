#include "millib/online_detector.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "millib/causal_chain.h"
#include "obs/trace.h"
#include "test_util.h"

namespace ntier::millib {
namespace {

using obs::EventKind;
using obs::Tier;
using obs::TraceEvent;
using sim::SimTime;
using obs::testing::ev;

void by_time(std::vector<TraceEvent>& events) {
  std::stable_sort(events.begin(), events.end(),
                   [](const TraceEvent& a, const TraceEvent& b) { return a.at < b.at; });
}

// Request ids congruent to 1 mod the default head_every (101), so nothing in
// these streams is retained by the head sample by accident.
std::uint64_t req_id(std::uint64_t i) { return 101'000 + i * 101 + 1; }

/// Healthy background: every 10 ms an attempt+release pair on worker 0
/// (committed queue bounces 0->1->0), lb_value updates from balancer 0 for
/// workers 0 and 1 every 20 ms, iowait samples at 5% every 50 ms.
void healthy(std::vector<TraceEvent>& out, std::int64_t t0, std::int64_t t1) {
  for (std::int64_t t = t0; t < t1; t += 10) {
    const std::uint64_t r = req_id(static_cast<std::uint64_t>(t));
    out.push_back(ev(t, EventKind::kGetEndpointAttempt, Tier::kBalancer, 0, 0, r));
    out.push_back(ev(t, EventKind::kEndpointRelease, Tier::kBalancer, 0, 0, r));
    if (t % 20 == 0) {
      out.push_back(ev(t, EventKind::kLbValue, Tier::kBalancer, 0, 0, 0, 1.0));
      out.push_back(ev(t, EventKind::kLbValue, Tier::kBalancer, 0, 1, 0, 1.0));
    }
    if (t % 50 == 0) {
      out.push_back(ev(t, EventKind::kIoWait, Tier::kTomcat, 0, -1, 0, 0.05));
      out.push_back(ev(t, EventKind::kIoWait, Tier::kTomcat, 1, -1, 0, 0.05));
    }
  }
}

/// The full millibottleneck signature on worker 0 at t=1000..1300 ms:
/// saturated iowait, lb_value frozen (silent 980 -> 1300), and 15 committed
/// requests that only release at t=1300.
std::vector<TraceEvent> episode_stream() {
  // Episode request ids start at req_id(5000), clear of the ids the healthy
  // background derives from its timestamps.
  std::vector<TraceEvent> out;
  healthy(out, 0, 1000);
  for (int i = 0; i < 15; ++i)
    out.push_back(ev(1000 + 2 * i, EventKind::kGetEndpointAttempt,
                     Tier::kBalancer, 0, 0, req_id(5000 + static_cast<std::uint64_t>(i))));
  for (std::int64_t t = 1000; t <= 1250; t += 50) {
    out.push_back(ev(t, EventKind::kIoWait, Tier::kTomcat, 0, -1, 0, 0.95));
    out.push_back(ev(t, EventKind::kIoWait, Tier::kTomcat, 1, -1, 0, 0.05));
  }
  for (std::int64_t t = 1000; t < 1300; t += 20)
    out.push_back(ev(t, EventKind::kLbValue, Tier::kBalancer, 0, 1, 0, 1.0));
  by_time(out);
  for (int i = 0; i < 15; ++i)
    out.push_back(ev(1300, EventKind::kEndpointRelease, Tier::kBalancer, 0, 0,
                     req_id(5000 + static_cast<std::uint64_t>(i))));
  // One VLRT completes during the drain.
  out.push_back(ev(1400, EventKind::kClientDone, Tier::kClient, 0, 3,
                   req_id(5000), 1'500.0, 0));
  healthy(out, 1450, 2000);
  return out;
}

/// Committed-queue steps on worker 0: at each {t_ms, level} the queue moves
/// to `level` through balancer attempts (up) or releases (down).
std::vector<TraceEvent> queue_steps(
    std::initializer_list<std::pair<std::int64_t, int>> steps) {
  std::vector<TraceEvent> out;
  int level = 0;
  for (const auto& [t, to] : steps) {
    for (; level < to; ++level)
      out.push_back(ev(t, EventKind::kGetEndpointAttempt, Tier::kBalancer, 0, 0));
    for (; level > to; --level)
      out.push_back(ev(t, EventKind::kEndpointRelease, Tier::kBalancer, 0, 0));
  }
  return out;
}

std::vector<SpikeRun> spike_runs(const std::vector<TraceEvent>& stream,
                                 std::int64_t end_ms) {
  OnlineDetector det;
  for (const auto& e : stream) det.observe(e);
  det.finish(SimTime::millis(end_ms));
  return det.spike_runs();
}

TEST(OnlineDetector, SpikeRunsFindBothSpikes) {
  // A steady queue of 5 (threshold 5 x 5 = 25) with a 300 spike at
  // 1.00-1.15 s and a 120 spike at 3.00-3.05 s.
  const auto runs = spike_runs(
      queue_steps({{0, 5}, {1000, 300}, {1150, 5}, {3000, 120}, {3050, 5}}),
      5000);
  ASSERT_EQ(runs.size(), 2u);
  EXPECT_EQ(runs[0].node, 0);
  EXPECT_EQ(runs[0].start, SimTime::millis(1000));
  EXPECT_DOUBLE_EQ(runs[0].peak, 300.0);
  EXPECT_EQ(runs[1].start, SimTime::millis(3000));
  EXPECT_DOUBLE_EQ(runs[1].peak, 120.0);
}

TEST(OnlineDetector, QuietQueueYieldsNoSpikeRuns) {
  EXPECT_TRUE(spike_runs(queue_steps({{0, 5}, {1000, 6}}), 2000).empty());
}

TEST(OnlineDetector, SpikeRunsIgnoreIdleNoiseBelowTheAbsoluteFloor) {
  // On an idle queue (one request at t=0 opens the Tomcat's baseline) the
  // median is 0, so only queue_min_absolute (10) separates noise from a
  // spike.
  EXPECT_TRUE(
      spike_runs(queue_steps({{0, 1}, {10, 0}, {1000, 3}, {1020, 0}}), 2000)
          .empty());
  EXPECT_EQ(
      spike_runs(queue_steps({{0, 1}, {10, 0}, {1000, 12}, {1020, 0}}), 2000)
          .size(),
      1u);
}

TEST(OnlineDetector, SpikeRunsMergeAcrossOneQuietWindow) {
  // Spiking windows [1000, 1050) and [1100, 1150) around one quiet window
  // form one run; two quiet windows split them.
  const auto merged = spike_runs(
      queue_steps({{0, 5}, {1000, 200}, {1040, 5}, {1100, 180}, {1140, 5}}),
      3000);
  ASSERT_EQ(merged.size(), 1u);
  EXPECT_EQ(merged[0].start, SimTime::millis(1000));
  EXPECT_EQ(merged[0].end, SimTime::millis(1150));
  EXPECT_DOUBLE_EQ(merged[0].peak, 200.0);
  EXPECT_EQ(spike_runs(queue_steps({{0, 5},
                                    {1000, 200},
                                    {1040, 5},
                                    {1150, 180},
                                    {1190, 5}}),
                       3000)
                .size(),
            2u);
}

TEST(OnlineDetector, EmptyStreamYieldsNoSpikeRuns) {
  OnlineDetector det;
  det.finish(SimTime::seconds(1));
  EXPECT_TRUE(det.spike_runs().empty());
  EXPECT_TRUE(det.episodes().empty());
}

TEST(OnlineDetector, IgnoresTomcatIndicesBeyondTheNodeField) {
  // Worker 40000 cannot name a Tomcat (a Tomcat's own events carry its index
  // in the int16 node field): its committed and lb_value events are dropped
  // instead of sizing the per-Tomcat table for them.
  std::vector<TraceEvent> out = queue_steps({{0, 5}, {1000, 300}, {1150, 5}});
  for (auto& e : out) e.worker = 40000;
  for (std::int64_t t = 0; t < 2000; t += 20)
    out.push_back(ev(t, EventKind::kLbValue, Tier::kBalancer, 0, 40000, 0, 1.0));
  by_time(out);
  OnlineDetector det;
  for (const auto& e : out) det.observe(e);
  det.finish(SimTime::millis(2000));
  EXPECT_TRUE(det.spike_runs().empty());
  EXPECT_TRUE(det.episodes().empty());
  // The same stream on worker 0 does spike.
  for (auto& e : out) e.worker = 0;
  EXPECT_EQ(spike_runs(out, 2000).size(), 1u);
}

TEST(OnlineDetector, DetectsTheHandCraftedEpisodeWithSubWindowLatency) {
  OnlineDetector det;
  for (const auto& e : episode_stream()) det.observe(e);
  det.finish(SimTime::millis(2000));

  ASSERT_EQ(det.episodes().size(), 1u);
  const OnlineEpisode& ep = det.episodes()[0];
  EXPECT_EQ(ep.node, 0);
  EXPECT_EQ(ep.onset, SimTime::millis(1000));
  // Confirmed at the end of the window in which the 100 ms lb freeze became
  // observable: two 50 ms windows after onset.
  EXPECT_EQ(ep.detected_at, SimTime::millis(1100));
  EXPECT_DOUBLE_EQ(ep.detection_latency_ms(), 100.0);
  EXPECT_DOUBLE_EQ(ep.queue_peak, 15.0);
  EXPECT_EQ(ep.vlrts, 1u);
  EXPECT_TRUE(ep.closed);
  EXPECT_GE(ep.end, ep.detected_at);
  EXPECT_GT(det.events_observed(), 0u);
  EXPECT_GT(det.windows_evaluated(), 0u);
}

TEST(OnlineDetector, QuietStreamRaisesNoEpisodes) {
  OnlineDetector det;
  std::vector<TraceEvent> out;
  healthy(out, 0, 5000);
  for (const auto& e : out) det.observe(e);
  det.finish(SimTime::millis(5000));
  EXPECT_TRUE(det.episodes().empty());
}

TEST(OnlineDetector, QueueSpikeAloneIsNotAnEpisode) {
  // The false-positive guard: the same queue spike with healthy iowait and a
  // live lb_value never confirms, and the candidate is dropped on lapse.
  OnlineDetector det;
  std::vector<TraceEvent> out;
  healthy(out, 0, 1000);
  for (int i = 0; i < 15; ++i)
    out.push_back(ev(1000 + 2 * i, EventKind::kGetEndpointAttempt,
                     Tier::kBalancer, 0, 0, req_id(700 + static_cast<std::uint64_t>(i))));
  // lb_values and healthy iowait continue right through the spike.
  for (std::int64_t t = 1000; t < 1300; t += 20)
    out.push_back(ev(t, EventKind::kLbValue, Tier::kBalancer, 0, 0, 0, 1.0));
  for (std::int64_t t = 1000; t <= 1250; t += 50)
    out.push_back(ev(t, EventKind::kIoWait, Tier::kTomcat, 0, -1, 0, 0.05));
  by_time(out);
  for (int i = 0; i < 15; ++i)
    out.push_back(ev(1300, EventKind::kEndpointRelease, Tier::kBalancer, 0, 0,
                     req_id(700 + static_cast<std::uint64_t>(i))));
  healthy(out, 1300, 3000);
  for (const auto& e : out) det.observe(e);
  det.finish(SimTime::millis(3000));
  EXPECT_TRUE(det.episodes().empty());
}

TEST(OnlineDetector, IsAPureFunctionOfTheEventStream) {
  const auto stream = episode_stream();
  OnlineDetector a, b;
  for (const auto& e : stream) a.observe(e);
  for (const auto& e : stream) b.observe(e);
  a.finish(SimTime::millis(2000));
  b.finish(SimTime::millis(2000));
  EXPECT_EQ(a.episodes(), b.episodes());
  EXPECT_EQ(a.spike_runs(), b.spike_runs());
}

TEST(OnlineDetector, ScoreMatchesMissesAndFlagsSpuriousEpisodes) {
  std::vector<OnlineEpisode> eps(2);
  eps[0].node = 0;
  eps[0].onset = SimTime::millis(1050);
  eps[0].detected_at = SimTime::millis(1150);
  eps[0].end = SimTime::millis(1400);
  eps[1].node = 0;
  eps[1].onset = SimTime::millis(9000);  // overlaps no truth: spurious
  eps[1].detected_at = SimTime::millis(9100);
  eps[1].end = SimTime::millis(9200);

  std::vector<std::vector<std::pair<SimTime, SimTime>>> truth(2);
  truth[0].emplace_back(SimTime::millis(1000), SimTime::millis(1300));
  truth[1].emplace_back(SimTime::millis(2000), SimTime::millis(2300));  // missed

  const OnlineScore s = OnlineDetector::score(eps, truth);
  EXPECT_EQ(s.truth, 2u);
  EXPECT_EQ(s.matched, 1u);
  EXPECT_EQ(s.missed, 1u);
  EXPECT_EQ(s.false_positives, 1u);
  EXPECT_DOUBLE_EQ(s.match_fraction(), 0.5);
  // Latency is measured against the truth episode's start.
  ASSERT_EQ(s.latency_ms.size(), 1u);
  EXPECT_DOUBLE_EQ(s.latency_ms[0], 150.0);
  EXPECT_DOUBLE_EQ(s.median_latency_ms(), 150.0);
}

TEST(OnlineDetector, MarksEpisodeWindowsAndVlrtRequestsForTailSampling) {
  obs::TraceConfig tc;
  tc.ring = false;
  tc.tail.enabled = true;
  tc.tail.horizon = SimTime::seconds(30);  // decide everything at finish
  obs::TraceCollector trace(tc);
  OnlineDetector det({}, &trace);
  trace.add_sink(&det);

  auto stream = episode_stream();
  // The VLRT request's first event predates the episode: the request mark
  // must retain it end to end anyway.
  stream.push_back(
      ev(600, EventKind::kClientSend, Tier::kClient, 0, 3, req_id(5000)));
  by_time(stream);
  for (const auto& e : stream) trace.push(e);
  det.finish(SimTime::millis(2000));
  trace.finish_tail();

  bool kept_worker0_lb = false, kept_worker1_lb = false;
  bool kept_attempt_in_episode = false, kept_vlrt_send = false;
  std::uint64_t kept_healthy_attempts = 0;
  for (const auto& e : trace.tail_events()) {
    if (e.kind == EventKind::kLbValue) {
      if (e.worker == 0) kept_worker0_lb = true;
      if (e.worker == 1) kept_worker1_lb = true;
    }
    if (e.kind == EventKind::kGetEndpointAttempt && e.request == req_id(5005))
      kept_attempt_in_episode = true;
    if (e.kind == EventKind::kClientSend && e.request == req_id(5000))
      kept_vlrt_send = true;
    if (e.kind == EventKind::kGetEndpointAttempt &&
        e.at < SimTime::millis(500))
      ++kept_healthy_attempts;
  }
  // lb_values are node-scoped: the stalled worker's copies inside the marked
  // window survive, the healthy worker's do not.
  EXPECT_TRUE(kept_worker0_lb);
  EXPECT_FALSE(kept_worker1_lb);
  // The episode's committed-queue deltas survive; the VLRT request survives
  // end to end including its pre-episode client_send.
  EXPECT_TRUE(kept_attempt_in_episode);
  EXPECT_TRUE(kept_vlrt_send);
  // Far outside any mark, per-request traffic is dropped.
  EXPECT_EQ(kept_healthy_attempts, 0u);
  // Node-level signals (iowait) always survive as the chain skeleton.
  EXPECT_TRUE(std::any_of(
      trace.tail_events().begin(), trace.tail_events().end(),
      [](const TraceEvent& e) { return e.kind == EventKind::kIoWait; }));
  EXPECT_LT(trace.tail_kept(), trace.tail_seen());
}

TEST(OnlineDetector, MarkedContextIsCappedAtMarkMaxPastTheOnset) {
  // A drain that outlasts the stall: the detector keeps tracking it, but
  // marks at most mark_max (600 ms) of context past the onset — committed
  // deltas at t=2000 (1 s into the episode) must not survive.
  obs::TraceConfig tc;
  tc.ring = false;
  tc.tail.enabled = true;
  tc.tail.horizon = SimTime::seconds(30);
  obs::TraceCollector trace(tc);
  OnlineDetector det({}, &trace);
  trace.add_sink(&det);

  std::vector<TraceEvent> out;
  healthy(out, 0, 1000);
  // The queue spikes at t=1000 (15 committed at once) and keeps climbing
  // without draining until the stream goes healthy again at t=2500.
  for (int i = 0; i < 15; ++i)
    out.push_back(ev(1000, EventKind::kGetEndpointAttempt, Tier::kBalancer, 0,
                     0, req_id(800 + static_cast<std::uint64_t>(i))));
  for (std::int64_t t = 1000; t < 2400; t += 50) {
    if (t >= 1050)
      out.push_back(ev(t, EventKind::kGetEndpointAttempt, Tier::kBalancer, 0,
                       0, req_id(800 + static_cast<std::uint64_t>(t))));
    out.push_back(ev(t, EventKind::kIoWait, Tier::kTomcat, 0, -1, 0, 0.95));
  }
  by_time(out);
  healthy(out, 2500, 3500);
  for (const auto& e : out) trace.push(e);
  det.finish(SimTime::millis(3500));
  trace.finish_tail();

  ASSERT_GE(det.episodes().size(), 1u);
  EXPECT_EQ(det.episodes()[0].onset, SimTime::millis(1000));
  bool kept_early = false, kept_late = false;
  for (const auto& e : trace.tail_events()) {
    if (e.kind != EventKind::kGetEndpointAttempt) continue;
    if (e.request == req_id(800 + 1200)) kept_early = true;  // t=1200
    if (e.request == req_id(800 + 2000)) kept_late = true;   // t=2000
  }
  EXPECT_TRUE(kept_early);
  EXPECT_FALSE(kept_late);
}

TEST(OnlineDetector, AgreesWithTheOfflineAnalyzerOnTheFigure6Scenario) {
  // The acceptance experiment: stream the paper's unstable configuration
  // through the live detector and require >=90% agreement with the offline
  // causal-chain analysis, zero spurious episodes, and a median detection
  // latency within 250 ms.
  auto cfg = experiment::testing::quick_config(
      lb::PolicyKind::kTotalRequest, lb::MechanismKind::kBlocking,
      /*millibottlenecks=*/true, sim::SimTime::seconds(15));
  cfg.event_trace = true;
  cfg.online_detect = true;
  auto e = experiment::testing::run(std::move(cfg));
  ASSERT_NE(e->trace(), nullptr);
  ASSERT_NE(e->online_detector(), nullptr);

  const auto report =
      CausalChainAnalyzer().analyze(e->trace()->snapshot());
  const auto score = OnlineDetector::score(e->online_detector()->episodes(),
                                           report.tomcat_truth_intervals());
  ASSERT_GT(score.truth, 0u);
  EXPECT_GE(score.match_fraction(), 0.9);
  EXPECT_EQ(score.false_positives, 0u);
  EXPECT_LE(score.median_latency_ms(), 250.0);
}

TEST(OnlineDetector, ReplayingTheRecordedTraceReproducesTheLiveRun) {
  // The offline analyzer's premise: a fresh detector fed the run's recorded
  // trace and finished at the same instant reaches the live verdicts.
  auto cfg = experiment::testing::quick_config(
      lb::PolicyKind::kTotalRequest, lb::MechanismKind::kBlocking,
      /*millibottlenecks=*/true, sim::SimTime::seconds(10));
  cfg.event_trace = true;
  cfg.online_detect = true;
  auto e = experiment::testing::run(std::move(cfg));
  const OnlineDetector& live = *e->online_detector();
  ASSERT_EQ(e->trace()->dropped(), 0u);

  OnlineDetector replay(live.config());
  for (const auto& event : e->trace()->snapshot()) replay.observe(event);
  replay.finish(e->config().duration);

  EXPECT_EQ(replay.events_observed(), live.events_observed());
  ASSERT_FALSE(live.episodes().empty());
  EXPECT_EQ(replay.episodes(), live.episodes());
  EXPECT_EQ(replay.spike_runs(), live.spike_runs());
}

}  // namespace
}  // namespace ntier::millib
