#include "millib/causal_chain.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <sstream>
#include <string>

#include "obs/trace.h"
#include "test_util.h"

namespace ntier::millib {
namespace {

using obs::EventKind;
using obs::Tier;
using obs::TraceEvent;
using sim::SimTime;
using obs::testing::ev;

/// Digest of the report's JSON followed by its printed text, against the
/// row `name` of tests/golden/causal_chain.fnv.
void expect_golden(const CausalChainReport& report, const std::string& name) {
  std::ostringstream os;
  report.to_json(os);
  report.print(os);
  EXPECT_EQ(experiment::testing::fnv1a_hex(os.str()),
            experiment::testing::golden_digests(
                std::string(NTIER_GOLDEN_DIR) + "/causal_chain.fnv")[name]);
}

TEST(CausalChainAnalyzer, EmptyTraceYieldsEmptyReport) {
  const auto report = CausalChainAnalyzer().analyze({});
  EXPECT_TRUE(report.chains.empty());
  EXPECT_TRUE(report.vlrt.empty());
  EXPECT_EQ(report.coverage(), 0.0);
}

TEST(CausalChainAnalyzer, JoinsHandCraftedLinksToTheEpisode) {
  // A fabricated 300 ms pdflush episode on tomcat 0 starting at t=1000ms,
  // with an iowait spike and a frozen lb_value overlapping it, plus a SYN
  // retransmission cluster and one VLRT that spans the episode.
  std::vector<TraceEvent> events;
  // Background iowait samples (every 50 ms) that spike during the episode.
  for (std::int64_t t = 500; t <= 2000; t += 50) {
    const bool hot = t >= 1050 && t <= 1300;
    events.push_back(ev(t, EventKind::kIoWait, Tier::kTomcat, 0, -1, 0,
                        hot ? 0.97 : 0.05));
  }
  // lb_value updates for (balancer 0, worker 0): steady 20 ms cadence that
  // freezes for 250 ms across the episode.
  for (std::int64_t t = 500; t <= 1000; t += 20)
    events.push_back(ev(t, EventKind::kLbValue, Tier::kBalancer, 0, 0, 0, 1.0));
  for (std::int64_t t = 1250; t <= 2000; t += 20)
    events.push_back(ev(t, EventKind::kLbValue, Tier::kBalancer, 0, 0, 0, 1.0));
  // The episode itself.
  events.push_back(ev(1000, EventKind::kPdflushStart, Tier::kTomcat, 0, -1, 0,
                      8 << 20));
  events.push_back(ev(1300, EventKind::kPdflushStop, Tier::kTomcat, 0, -1, 0,
                      8 << 20));
  // Retransmissions offset into the episode.
  for (std::uint64_t r = 100; r < 110; ++r)
    events.push_back(ev(1200, EventKind::kSynRetransmit, Tier::kClient, 0, -1,
                        r, 3000.0, 1));
  // One VLRT request whose connect hop eats the episode.
  events.push_back(ev(900, EventKind::kClientSend, Tier::kClient, 0, 1, 55));
  events.push_back(
      ev(1150, EventKind::kSynRetransmit, Tier::kClient, 0, 1, 55, 3000.0, 1));
  events.push_back(ev(2050, EventKind::kWorkerPickup, Tier::kApache, 0, 0, 55));
  events.push_back(
      ev(2060, EventKind::kEndpointAcquire, Tier::kBalancer, 0, 0, 55));
  events.push_back(
      ev(2080, EventKind::kEndpointRelease, Tier::kBalancer, 0, 0, 55));
  events.push_back(
      ev(2100, EventKind::kClientDone, Tier::kClient, 0, 1, 55, 1200.0, 0));
  std::sort(events.begin(), events.end(),
            [](const TraceEvent& a, const TraceEvent& b) {
              return a.at.ns() < b.at.ns();
            });

  const auto report = CausalChainAnalyzer().analyze(events);
  ASSERT_EQ(report.chains.size(), 1u);
  const auto& c = report.chains[0];
  EXPECT_EQ(c.tier, Tier::kTomcat);
  EXPECT_EQ(c.node, 0);
  EXPECT_FALSE(c.synthetic);
  EXPECT_TRUE(c.iowait.present);
  EXPECT_NEAR(c.iowait.magnitude, 0.97, 1e-9);
  EXPECT_TRUE(c.frozen_lb.present);
  EXPECT_GE(c.frozen_lb.magnitude, 200.0);  // the 250 ms gap
  EXPECT_TRUE(c.retransmits.present);
  EXPECT_GE(c.retransmits.count, 10u);

  // The lone VLRT is attributed to the episode via its in-window retransmit,
  // and its dominant hop is the connect segment.
  ASSERT_EQ(report.vlrt.size(), 1u);
  EXPECT_EQ(report.vlrt[0].request, 55u);
  EXPECT_EQ(report.vlrt[0].episode, 0);
  EXPECT_EQ(report.vlrt[0].dominant, Hop::kConnect);
  EXPECT_EQ(report.coverage(), 1.0);
}

TEST(CausalChainAnalyzer, ReconstructsTheFigure6ChainFromARealRun) {
  // The acceptance experiment: run the paper's unstable configuration
  // (total_request + blocking get_endpoint + pdflush millibottlenecks),
  // collect the event trace, and require that the analyzer reconstructs the
  // full chain and explains >=90% of the VLRTs.
  auto cfg = experiment::testing::quick_config(
      lb::PolicyKind::kTotalRequest, lb::MechanismKind::kBlocking,
      /*millibottlenecks=*/true, sim::SimTime::seconds(15));
  cfg.event_trace = true;
  auto e = experiment::testing::run(std::move(cfg));
  ASSERT_NE(e->trace(), nullptr);

  const auto report =
      CausalChainAnalyzer().analyze(e->trace()->snapshot());
  EXPECT_EQ(report.events, e->trace()->size());
  ASSERT_GT(report.chains.size(), 0u);
  EXPECT_GT(report.full_chains(), 0u);

  // The run is long enough to produce a meaningful VLRT population.
  ASSERT_GT(report.vlrt.size(), 100u);
  EXPECT_GE(report.coverage(), 0.9);

  // Attributions carry a concrete dominant hop and per-hop decomposition.
  for (const auto& v : report.vlrt) {
    if (v.episode < 0) continue;
    double total = 0;
    for (double h : v.hop_ms) total += h;
    EXPECT_GT(total, 0.0);
  }

  // The report renders without blowing up and names the chain links.
  std::ostringstream os;
  report.print(os);
  EXPECT_NE(os.str().find("FULL CHAIN"), std::string::npos);
  EXPECT_NE(os.str().find("frozen lb_value"), std::string::npos);
  std::ostringstream js;
  report.to_json(js);
  EXPECT_EQ(js.str().front(), '{');
  expect_golden(report, "fig06");
}

TEST(CausalChainAnalyzer, KvCacheReportMatchesGolden) {
  // KV data tier behind a cache tier, with correlated stalls on the KV
  // replicas: the chains sit on KV nodes and join queue spikes from any
  // Tomcat, slow quorums and cache misses.
  experiment::ExperimentConfig c;
  c.num_apaches = 2;
  c.num_tomcats = 3;
  c.num_clients = 300;
  c.think_mean = SimTime::millis(200);
  c.duration = SimTime::seconds(10);
  c.warmup = SimTime::millis(500);
  c.db_tier = server::DbTier::kKv;
  c.kv_millibottlenecks = true;
  c.workload.zipf_s = 1.1;
  c.cache_tier = true;
  c.event_trace = true;
  auto e = experiment::testing::run(std::move(c));
  const auto report = CausalChainAnalyzer().analyze(e->trace()->snapshot());
  ASSERT_GT(report.chains.size(), 0u);
  EXPECT_FALSE(report.kv_shards.empty());
  EXPECT_GT(report.cache_miss_events, 0u);
  expect_golden(report, "kv_cache");
}

}  // namespace
}  // namespace ntier::millib
