#include "lb/probe_policy.h"

#include <gtest/gtest.h>

#include <array>
#include <sstream>
#include <vector>

#include "obs/trace_io.h"
#include "sim/simulation.h"
#include "test_util.h"

namespace ntier::lb {
namespace {

using testing::all_of;
using testing::set_of;

using sim::SimTime;

std::vector<WorkerRecord> make_records(int n) {
  std::vector<WorkerRecord> recs(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) recs[static_cast<std::size_t>(i)].tomcat_id = i;
  return recs;
}

/// Harness: a probe pool whose transport reports scripted (rif, latency)
/// pairs, but only for the first tick — so advancing the clock past the
/// staleness window makes every result stale instead of being refreshed.
struct PoolFixture {
  sim::Simulation simu{1};
  std::vector<double> rifs;
  std::vector<double> latencies;
  int answered = 0;
  probe::ProbePool pool;

  PoolFixture(std::vector<double> r, std::vector<double> lat,
              SimTime staleness = SimTime::millis(100))
      : rifs(std::move(r)),
        latencies(std::move(lat)),
        pool(simu, static_cast<int>(rifs.size()),
             [this](int w, probe::ProbePool::ReplyFn done) {
               if (answered >= static_cast<int>(rifs.size())) return;
               ++answered;
               done(true, rifs[static_cast<std::size_t>(w)],
                    latencies[static_cast<std::size_t>(w)]);
             },
             config(static_cast<int>(rifs.size()), staleness)) {
    // One tick at 100 ms probes every worker; results land instantly.
    simu.run_until(SimTime::millis(150));
  }

  static probe::ProbeConfig config(int n, SimTime staleness) {
    probe::ProbeConfig c;
    c.enabled = true;
    c.rate_hz = 10.0;
    c.d = n;  // probe the whole tier each tick
    c.staleness = staleness;
    c.timeout = SimTime::millis(30);
    return c;
  }

  void make_everything_stale() {
    // Results are from t=100 ms; at t=450 ms they are 350 ms old, past the
    // 100 ms staleness bound. The transport stopped answering after tick 1.
    simu.run_until(SimTime::millis(450));
  }
};

TEST(PowerOfD, PicksLowestProbedRifAmongTheSample) {
  PoolFixture fx({5.0, 1.0, 3.0}, {2.0, 2.0, 2.0});
  PowerOfDPolicy p(/*d=*/3);  // d == n: the sample is the whole tier
  p.bind(&fx.pool);
  auto recs = make_records(3);
  sim::Rng rng(1);
  EXPECT_EQ(p.pick(recs, all_of(recs), rng), 1);
  EXPECT_EQ(p.probe_picks(), 1u);
  EXPECT_EQ(p.fallback_picks(), 0u);
  EXPECT_EQ(fx.pool.uses(), 1u);  // the decision consumed a probe use
}

TEST(PowerOfD, TieOnRifBreaksTowardLowerWorkerIndex) {
  PoolFixture fx({2.0, 2.0, 2.0, 2.0}, {1.0, 1.0, 1.0, 1.0});
  PowerOfDPolicy p(/*d=*/4);
  p.bind(&fx.pool);
  auto recs = make_records(4);
  sim::Rng rng(1);
  EXPECT_EQ(p.pick(recs, all_of(recs), rng), 0);
}

TEST(PowerOfD, RespectsEligibleSubset) {
  PoolFixture fx({0.0, 5.0, 1.0}, {1.0, 1.0, 1.0});
  PowerOfDPolicy p(/*d=*/3);
  p.bind(&fx.pool);
  auto recs = make_records(3);
  sim::Rng rng(1);
  // Worker 0 has the global minimum RIF but is not eligible.
  EXPECT_EQ(p.pick(recs, set_of(recs, {1, 2}), rng), 2);
  EXPECT_EQ(p.pick(recs, set_of(recs, {}), rng), -1);
}

TEST(PowerOfD, UnboundPoolFallsBackToCurrentLoadRanking) {
  PowerOfDPolicy p;
  auto recs = make_records(3);
  recs[0].lb_value = 2;
  recs[1].lb_value = 1;
  recs[2].lb_value = 3;
  sim::Rng rng(1);
  EXPECT_EQ(p.pick(recs, all_of(recs), rng), 1);  // lowest lb_value
  EXPECT_EQ(p.fallback_picks(), 1u);
  EXPECT_EQ(p.probe_picks(), 0u);
}

TEST(PowerOfD, StaleProbesTriggerTheDocumentedFallback) {
  // The contract from probe_policy.h: probes past the staleness bound are as
  // good as no probes, and the decision degrades to exactly the paper's
  // current_load remedy (lowest lb_value under +1/-1 bookkeeping).
  PoolFixture fx({5.0, 1.0, 3.0}, {2.0, 2.0, 2.0});
  PowerOfDPolicy p(/*d=*/3);
  p.bind(&fx.pool);
  auto recs = make_records(3);
  sim::Rng rng(1);
  EXPECT_EQ(p.pick(recs, all_of(recs), rng), 1);  // fresh: probed RIF wins

  fx.make_everything_stale();
  recs[0].lb_value = 3;  // under current_load ranking worker 2 now wins
  recs[1].lb_value = 4;
  recs[2].lb_value = 1;
  EXPECT_EQ(p.pick(recs, all_of(recs), rng), 2);
  EXPECT_EQ(p.fallback_picks(), 1u);
  EXPECT_EQ(fx.pool.size(), 0u);  // expire_now() inside pick dropped them
  EXPECT_GT(fx.pool.expired_stale(), 0u);
}

TEST(Prequal, AvoidsHotWorkersAndPicksColdestByLatency) {
  // RIFs {1, 1, 10}: quantile = sorted[floor(.75*2)] = 1, hot threshold
  // max(1*2, 1+1) = 2, so worker 2 (rif 10) is hot — the anomaly regime.
  // Among the cold pair the lower estimated latency (worker 1) wins.
  PoolFixture fx({1.0, 1.0, 10.0}, {9.0, 4.0, 0.5});
  PrequalPolicy p;
  p.bind(&fx.pool);
  auto recs = make_records(3);
  sim::Rng rng(1);
  EXPECT_EQ(p.pick(recs, all_of(recs), rng), 1);
  EXPECT_EQ(p.probe_picks(), 1u);
}

TEST(Prequal, UniformRifPoolShowsNoAnomalyAndRanksByCurrentLoad) {
  // Identical RIFs stay under the hot threshold — the quiet regime: the
  // pick is current_load ranking, not the latency rule.
  PoolFixture fx({3.0, 3.0, 3.0}, {5.0, 1.0, 2.0});
  PrequalPolicy p;
  p.bind(&fx.pool);
  auto recs = make_records(3);
  recs[0].lb_value = 2;
  recs[1].lb_value = 1;  // lowest current_load wins despite equal probes
  recs[2].lb_value = 3;
  sim::Rng rng(1);
  EXPECT_EQ(p.pick(recs, all_of(recs), rng), 1);
  EXPECT_EQ(p.probe_picks(), 0u);
}

TEST(Prequal, QuietRegimeBreaksCurrentLoadTiesByProbedRif) {
  // RIFs {4, 2, 4}: quantile = sorted[1] = 4, hot threshold max(8, 5) — no
  // anomaly. Workers 1 and 2 tie on current_load; the probed global RIF
  // (2 < 4) breaks the tie instead of mod_jk's first-index scan.
  PoolFixture fx({4.0, 2.0, 4.0}, {1.0, 1.0, 1.0});
  PrequalPolicy p;
  p.bind(&fx.pool);
  auto recs = make_records(3);
  recs[0].lb_value = 1;
  sim::Rng rng(1);
  EXPECT_EQ(p.pick(recs, all_of(recs), rng), 1);
  EXPECT_EQ(p.tiebreak_picks(), 1u);
  EXPECT_EQ(fx.pool.uses(), 0u);  // tie-break reads spend no reuse budget
}

TEST(Prequal, QuietRegimeEqualCandidatesKeepScanOrder) {
  PoolFixture fx({1.0, 1.0}, {2.0, 2.0});
  PrequalPolicy p;
  p.bind(&fx.pool);
  auto recs = make_records(2);
  sim::Rng rng(1);
  EXPECT_EQ(p.pick(recs, all_of(recs), rng), 0);
}

TEST(Prequal, StaleProbesTriggerTheDocumentedFallback) {
  PoolFixture fx({1.0, 1.0, 10.0}, {9.0, 4.0, 0.5});
  PrequalPolicy p;
  p.bind(&fx.pool);
  auto recs = make_records(3);
  sim::Rng rng(1);
  EXPECT_EQ(p.pick(recs, all_of(recs), rng), 1);

  fx.make_everything_stale();
  recs[0].lb_value = 0;
  recs[1].lb_value = 5;
  recs[2].lb_value = 5;
  EXPECT_EQ(p.pick(recs, all_of(recs), rng), 0);  // current_load ranking
  EXPECT_EQ(p.fallback_picks(), 1u);
  EXPECT_EQ(p.probe_picks(), 1u);
}

TEST(ProbeAware, BookkeepingMatchesCurrentLoad) {
  // The fallback is only "exactly current_load" because the probe family
  // keeps the same +1/-1 lb_value accounting.
  auto recs = make_records(1);
  PrequalPolicy p;
  proto::Request r;
  p.on_assigned(recs[0], r);
  p.on_assigned(recs[0], r);
  EXPECT_DOUBLE_EQ(recs[0].lb_value, 2.0);
  p.on_completed(recs[0], r);
  EXPECT_DOUBLE_EQ(recs[0].lb_value, 1.0);
  p.on_completed(recs[0], r);
  p.on_completed(recs[0], r);  // floors at zero, like Algorithm 4
  EXPECT_DOUBLE_EQ(recs[0].lb_value, 0.0);
}

TEST(ProbeDeterminism, PrequalTraceIsByteIdenticalForAFixedSeed) {
  // The probe subsystem adds its own RNG stream and its own event traffic;
  // neither may break the repo-wide invariant that a trace's JSONL bytes are
  // a pure function of (seed, config) — probing enabled included.
  auto make = [] {
    auto cfg = experiment::testing::quick_config(
        lb::PolicyKind::kPrequal, lb::MechanismKind::kNonBlocking,
        /*millibottlenecks=*/true, sim::SimTime::seconds(6));
    cfg.event_trace = true;
    auto e = experiment::testing::run(std::move(cfg));
    std::ostringstream os;
    obs::write_jsonl(os, *e->trace());
    return os.str();
  };
  const std::string a = make();
  const std::string b = make();
  EXPECT_FALSE(a.empty());
  EXPECT_EQ(a, b);  // byte-identical with probing enabled
}

TEST(ProbeDeterminism, ProbingExperimentEmitsProbeEventsAndProbePicks) {
  auto cfg = experiment::testing::quick_config(
      lb::PolicyKind::kPrequal, lb::MechanismKind::kNonBlocking,
      /*millibottlenecks=*/true, sim::SimTime::seconds(6));
  cfg.event_trace = true;
  auto e = experiment::testing::run(std::move(cfg));
  ASSERT_NE(e->trace(), nullptr);

  std::uint64_t sent = 0, replies = 0;
  e->trace()->for_each([&](const obs::TraceEvent& ev) {
    if (ev.kind == obs::EventKind::kProbeSent) ++sent;
    if (ev.kind == obs::EventKind::kProbeReply) ++replies;
  });
  EXPECT_GT(sent, 0u);
  EXPECT_GT(replies, 0u);
  EXPECT_LE(replies, sent);

  // The balancers actually consult probe state (anomaly-regime picks or
  // quiet-regime tie-breaks), not just the fallback.
  std::uint64_t probe_influenced = 0;
  for (int a = 0; a < e->num_apaches(); ++a) {
    const auto* aware = dynamic_cast<const ProbeAwarePolicy*>(
        &e->apache(a).balancer().policy());
    ASSERT_NE(aware, nullptr);
    probe_influenced += aware->probe_picks() + aware->tiebreak_picks();
  }
  EXPECT_GT(probe_influenced, 0u);
}

}  // namespace
}  // namespace ntier::lb
