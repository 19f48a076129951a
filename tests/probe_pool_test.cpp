#include "probe/probe_pool.h"

#include <gtest/gtest.h>

#include <vector>

#include "sim/simulation.h"

namespace ntier::probe {
namespace {

using sim::SimTime;

ProbeConfig quick_config() {
  ProbeConfig c;
  c.enabled = true;
  c.rate_hz = 10.0;  // tick every 100 ms
  c.d = 2;
  c.staleness = SimTime::millis(100);
  c.timeout = SimTime::millis(30);
  c.capacity = 16;
  return c;
}

/// Transport that answers instantly with rif = worker index (so tests can
/// tell replies apart) and records every probe target.
ProbePool::Transport echo_transport(std::vector<int>& fired) {
  return [&fired](int worker, ProbePool::ReplyFn done) {
    fired.push_back(worker);
    done(true, static_cast<double>(worker), 1.0 + worker);
  };
}

TEST(ProbePool, DisabledPoolNeverProbes) {
  sim::Simulation simu(1);
  std::vector<int> fired;
  ProbeConfig c = quick_config();
  c.enabled = false;
  ProbePool pool(simu, 4, echo_transport(fired), c);
  simu.run_until(SimTime::seconds(1));
  EXPECT_TRUE(fired.empty());
  EXPECT_EQ(pool.probes_sent(), 0u);
  EXPECT_EQ(pool.size(), 0u);
}

TEST(ProbePool, PiggybackedReportsPoolLikeProbeRepliesAtZeroProbeCost) {
  sim::Simulation simu(1);
  // No transport: nothing is ever probed, the pool is fed purely by
  // piggybacked load reports (Prequal's probe-on-response mode).
  ProbePool pool(simu, 4, nullptr, quick_config());
  simu.run_until(SimTime::millis(10));
  pool.observe(2, 7.0, 3.5);
  EXPECT_EQ(pool.piggybacked(), 1u);
  EXPECT_EQ(pool.probes_sent(), 0u);
  ASSERT_EQ(pool.size(), 1u);
  const auto r = pool.freshest(2);
  ASSERT_TRUE(r.has_value());
  EXPECT_EQ(r->rif, 7.0);
  EXPECT_EQ(r->latency_ms, 3.5);
  EXPECT_EQ(r->rtt_ms, 0.0);
  EXPECT_EQ(r->at, SimTime::millis(10));

  // A newer report supersedes the old entry and restarts its reuse budget.
  for (int i = 1; i < kReuseBudget; ++i) pool.note_use(2);  // one use left
  pool.observe(2, 4.0, 2.0);
  EXPECT_EQ(pool.size(), 1u);
  EXPECT_EQ(pool.freshest(2)->rif, 4.0);
  for (int i = 1; i < kReuseBudget; ++i) pool.note_use(2);
  EXPECT_EQ(pool.size(), 1u);  // the old entry's spent uses did not carry over
  pool.note_use(2);  // the last use on the fresh entry exhausts the budget
  EXPECT_EQ(pool.size(), 0u);
  EXPECT_EQ(pool.expired_budget(), 1u);

  // Out-of-range workers and disabled pools ignore reports.
  pool.observe(-1, 1.0, 1.0);
  pool.observe(4, 1.0, 1.0);
  EXPECT_EQ(pool.piggybacked(), 2u);
  EXPECT_EQ(pool.size(), 0u);
  ProbeConfig off = quick_config();
  off.enabled = false;
  ProbePool dead(simu, 4, nullptr, off);
  dead.observe(1, 1.0, 1.0);
  EXPECT_EQ(dead.piggybacked(), 0u);
  EXPECT_EQ(dead.size(), 0u);
}

TEST(ProbePool, EachTickProbesDDistinctTargets) {
  sim::Simulation simu(1);
  std::vector<int> fired;
  ProbePool pool(simu, 4, echo_transport(fired), quick_config());
  // Ticks at 100, 200, ..., 1000 ms -> 10 ticks x d=2 probes.
  simu.run_until(SimTime::seconds(1));
  EXPECT_EQ(pool.probes_sent(), 20u);
  EXPECT_EQ(pool.replies(), 20u);
  ASSERT_EQ(fired.size(), 20u);
  for (std::size_t t = 0; t + 1 < fired.size(); t += 2)
    EXPECT_NE(fired[t], fired[t + 1]) << "tick " << t / 2
                                      << " probed the same worker twice";
  for (int w : fired) {
    EXPECT_GE(w, 0);
    EXPECT_LT(w, 4);
  }
}

TEST(ProbePool, DClampsToWorkerCount) {
  sim::Simulation simu(1);
  std::vector<int> fired;
  ProbeConfig c = quick_config();
  c.d = 10;  // > num_workers
  ProbePool pool(simu, 3, echo_transport(fired), c);
  simu.run_until(SimTime::millis(100));
  EXPECT_EQ(pool.probes_sent(), 3u);  // one tick probes every worker once
  EXPECT_EQ(std::vector<int>(fired.begin(), fired.end()).size(), 3u);
}

TEST(ProbePool, RepliesPopulateThePoolAndFreshestWins) {
  sim::Simulation simu(1);
  std::vector<int> fired;
  ProbeConfig c = quick_config();
  c.d = 3;
  c.staleness = SimTime::seconds(10);  // nothing expires in this test
  ProbePool pool(simu, 3, echo_transport(fired), c);
  simu.run_until(SimTime::millis(450));  // 4 ticks; every worker re-probed
  pool.expire_now();
  EXPECT_EQ(pool.size(), 3u);  // one retained result per worker
  for (int w = 0; w < 3; ++w) {
    const auto fresh = pool.freshest(w);
    ASSERT_TRUE(fresh.has_value());
    EXPECT_EQ(fresh->worker, w);
    EXPECT_DOUBLE_EQ(fresh->rif, w);
    // The retained entry is the latest tick's reply.
    EXPECT_EQ(fresh->at, SimTime::millis(400));
  }
  EXPECT_TRUE(pool.has_fresh(0));
  EXPECT_FALSE(pool.has_fresh(3));
}

TEST(ProbePool, UnansweredProbesTimeOut) {
  sim::Simulation simu(1);
  ProbePool pool(
      simu, 2, [](int, ProbePool::ReplyFn) { /* never answers */ },
      quick_config());
  // Ticks at 100..500 ms; the 500 ms probes time out at 530 ms, so stop at
  // 540 ms with nothing still in flight.
  simu.run_until(SimTime::millis(540));
  EXPECT_GT(pool.timeouts(), 0u);
  EXPECT_EQ(pool.timeouts(), pool.probes_sent());
  EXPECT_EQ(pool.replies(), 0u);
  EXPECT_EQ(pool.size(), 0u);
}

TEST(ProbePool, LateRepliesLoseTheRaceAgainstTheTimeout) {
  sim::Simulation simu(1);
  ProbePool pool(
      simu, 1,
      [&simu](int, ProbePool::ReplyFn done) {
        // Answer 50 ms later than the 30 ms timeout.
        simu.after(SimTime::millis(50),
                   [done = std::move(done)] { done(true, 1.0, 1.0); });
      },
      quick_config());
  simu.run_until(SimTime::millis(300));
  EXPECT_GT(pool.timeouts(), 0u);
  EXPECT_EQ(pool.replies(), 0u);  // settled flag discarded the late replies
  EXPECT_EQ(pool.size(), 0u);
}

TEST(ProbePool, StaleResultsExpireOnDemand) {
  sim::Simulation simu(1);
  bool answered = false;
  ProbeConfig c = quick_config();
  c.d = 1;
  ProbePool pool(
      simu, 1,
      [&answered](int, ProbePool::ReplyFn done) {
        if (answered) return;  // only the first probe gets an answer
        answered = true;
        done(true, 2.0, 5.0);
      },
      c);
  simu.run_until(SimTime::millis(150));
  pool.expire_now();
  EXPECT_TRUE(pool.has_fresh(0));  // answered at 100 ms, 50 ms old

  simu.run_until(SimTime::millis(450));  // now 350 ms past the reply
  EXPECT_FALSE(pool.freshest(0).has_value());  // freshest filters stale...
  pool.expire_now();                           // ...and expire_now drops it
  EXPECT_EQ(pool.size(), 0u);
  EXPECT_EQ(pool.expired_stale(), 1u);
}

TEST(ProbePool, ReuseBudgetDiscardsAfterConfiguredUses) {
  sim::Simulation simu(1);
  std::vector<int> fired;
  ProbeConfig c = quick_config();
  c.d = 1;
  c.staleness = SimTime::seconds(10);
  bool answered = false;
  ProbePool pool(
      simu, 1,
      [&answered](int, ProbePool::ReplyFn done) {
        if (answered) return;
        answered = true;
        done(true, 1.0, 1.0);
      },
      c);
  simu.run_until(SimTime::millis(120));
  ASSERT_TRUE(pool.has_fresh(0));
  for (int i = 1; i < kReuseBudget; ++i) pool.note_use(0);
  EXPECT_TRUE(pool.has_fresh(0));  // one use of the budget left
  pool.note_use(0);
  EXPECT_FALSE(pool.has_fresh(0));  // budget exhausted -> discarded
  EXPECT_EQ(pool.expired_budget(), 1u);
  EXPECT_EQ(pool.uses(), static_cast<std::uint64_t>(kReuseBudget));
  pool.note_use(0);  // no entry: a no-op
  EXPECT_EQ(pool.uses(), static_cast<std::uint64_t>(kReuseBudget));
}

TEST(ProbePool, CapacityBoundEvictsOldest) {
  sim::Simulation simu(1);
  std::vector<int> fired;
  ProbeConfig c = quick_config();
  c.d = 8;
  c.capacity = 4;
  c.staleness = SimTime::seconds(10);
  ProbePool pool(simu, 8, echo_transport(fired), c);
  simu.run_until(SimTime::millis(100));  // one tick probes all 8 workers
  EXPECT_EQ(pool.replies(), 8u);
  EXPECT_EQ(pool.size(), 4u);  // bounded
}

TEST(ProbePool, MeanStalenessAtUseIsTracked) {
  sim::Simulation simu(1);
  bool answered = false;
  ProbeConfig c = quick_config();
  c.d = 1;
  c.staleness = SimTime::seconds(10);
  ProbePool pool(
      simu, 1,
      [&answered](int, ProbePool::ReplyFn done) {
        if (answered) return;
        answered = true;
        done(true, 1.0, 1.0);
      },
      c);
  simu.run_until(SimTime::millis(160));  // reply landed at 100 ms
  pool.note_use(0);                      // 60 ms old at use
  EXPECT_NEAR(pool.mean_staleness_at_use_ms(), 60.0, 1e-9);
}

TEST(ProbePool, SameSeedSameTargetSequence) {
  auto run_once = [] {
    sim::Simulation simu(99);
    std::vector<int> fired;
    ProbePool pool(simu, 6, echo_transport(fired), quick_config());
    simu.run_until(SimTime::seconds(2));
    return fired;
  };
  const auto a = run_once();
  const auto b = run_once();
  EXPECT_FALSE(a.empty());
  EXPECT_EQ(a, b);  // power-of-d sampling is a pure function of the seed
}

}  // namespace
}  // namespace ntier::probe
