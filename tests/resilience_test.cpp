#include "lb/health.h"

#include <gtest/gtest.h>

#include "experiment/chaos.h"
#include "experiment/experiment.h"
#include "lb/load_balancer.h"
#include "lb/retry.h"
#include "millib/fault_plan.h"
#include "sim/simulation.h"

namespace ntier::lb {
namespace {

using sim::SimTime;
using sim::Simulation;

proto::RequestRef make_req(std::uint64_t id = 1) {
  static proto::RequestPool pool;  // the test process is single-threaded
  auto r = pool.make();
  r->id = id;
  r->request_bytes = 400;
  r->response_bytes = 1600;
  return r;
}

BalancerConfig breaker_config() {
  BalancerConfig cfg;
  cfg.breaker.enabled = true;
  cfg.breaker.open_duration = SimTime::millis(500);
  return cfg;
}

std::unique_ptr<LoadBalancer> make_lb(Simulation& s, BalancerConfig cfg = {}) {
  return std::make_unique<LoadBalancer>(
      s, 4, make_policy(PolicyKind::kTotalRequest),
      make_acquirer(MechanismKind::kNonBlocking), cfg);
}

TEST(Breaker, ProbeOutcomesDriveHealthEwma) {
  Simulation s;
  auto lb = make_lb(s);  // breaker disabled: health still tracked
  EXPECT_DOUBLE_EQ(lb->record(0).health, 1.0);
  lb->report_probe(0, false, SimTime::millis(5));
  EXPECT_NEAR(lb->record(0).health, 0.7, 1e-9);  // default alpha 0.3
  lb->report_probe(0, true, SimTime::millis(2));
  EXPECT_NEAR(lb->record(0).health, 0.79, 1e-9);
  EXPECT_EQ(lb->record(0).probes, 2u);
  EXPECT_EQ(lb->record(0).probe_failures, 1u);
  EXPECT_DOUBLE_EQ(lb->record(0).probe_rtt_ms, 2.0);
  // Disabled breaker never trips, however low health goes.
  for (int i = 0; i < 20; ++i) lb->report_probe(0, false, SimTime::millis(5));
  EXPECT_FALSE(lb->record(0).breaker_open);
}

TEST(Breaker, TripsWorkerOutOfRotationOnProbeEvidence) {
  Simulation s;
  auto lb = make_lb(s, breaker_config());
  // alpha .3: two failed probes bring health to .49 < .5 -> trip.
  lb->report_probe(0, false, SimTime::millis(30));
  EXPECT_FALSE(lb->record(0).breaker_open);
  lb->report_probe(0, false, SimTime::millis(30));
  EXPECT_TRUE(lb->record(0).breaker_open);
  EXPECT_EQ(lb->breaker_trips(), 1u);
  // The tripped worker is skipped even though its mod_jk state is Available
  // and its pool has free endpoints.
  EXPECT_EQ(lb->record(0).state, WorkerState::kAvailable);
  for (int i = 0; i < 8; ++i) {
    auto req = make_req(static_cast<std::uint64_t>(i));
    lb->assign(req, [&, req](int idx) {
      ASSERT_GT(idx, 0);
      lb->on_response(idx, req);
    });
  }
}

TEST(Breaker, HalfOpenReadmissionAfterOpenDuration) {
  Simulation s;
  auto lb = make_lb(s, breaker_config());
  lb->report_probe(0, false, SimTime::millis(30));
  lb->report_probe(0, false, SimTime::millis(30));
  ASSERT_TRUE(lb->record(0).breaker_open);

  // A successful probe before open_duration elapses does not re-admit.
  s.after(SimTime::millis(100), [&] {
    lb->report_probe(0, true, SimTime::millis(1));
    EXPECT_TRUE(lb->record(0).breaker_open);
  });
  // After open_duration, a successful probe moves the worker to half-open
  // with trial requests, and it is assignable again.
  s.after(SimTime::millis(600), [&] {
    lb->report_probe(0, true, SimTime::millis(1));
    EXPECT_FALSE(lb->record(0).breaker_open);
    EXPECT_EQ(lb->record(0).half_open_left, kHalfOpenTrials);
    auto req = make_req();
    lb->assign(req, [&, req](int idx) {
      EXPECT_EQ(idx, 0);
      lb->on_response(idx, req);
    });
    EXPECT_EQ(lb->record(0).half_open_left, kHalfOpenTrials - 1);
  });
  s.run();
  EXPECT_EQ(lb->breaker_trips(), 1u);
}

TEST(Breaker, FailedProbeWhileOpenExtendsTheOpenWindow) {
  Simulation s;
  auto lb = make_lb(s, breaker_config());
  lb->report_probe(0, false, SimTime::millis(30));
  lb->report_probe(0, false, SimTime::millis(30));
  ASSERT_TRUE(lb->record(0).breaker_open);
  // A failure at 400 ms pushes breaker_until to 900 ms, so a success at
  // 600 ms (past the original 500 ms window) must not re-admit yet.
  s.after(SimTime::millis(400), [&] {
    lb->report_probe(0, false, SimTime::millis(30));
  });
  s.after(SimTime::millis(600), [&] {
    lb->report_probe(0, true, SimTime::millis(1));
    EXPECT_TRUE(lb->record(0).breaker_open);
  });
  s.after(SimTime::millis(950), [&] {
    lb->report_probe(0, true, SimTime::millis(1));
    EXPECT_FALSE(lb->record(0).breaker_open);
  });
  s.run();
}

TEST(Breaker, FailureDuringHalfOpenReopensImmediately) {
  Simulation s;
  auto lb = make_lb(s, breaker_config());
  lb->report_probe(0, false, SimTime::millis(30));
  lb->report_probe(0, false, SimTime::millis(30));
  s.after(SimTime::millis(600), [&] {
    lb->report_probe(0, true, SimTime::millis(1));
    ASSERT_FALSE(lb->record(0).breaker_open);
    ASSERT_GT(lb->record(0).half_open_left, 0);
    // The trial request's backend refuses: straight back to open.
    lb->report_failure(0);
    EXPECT_TRUE(lb->record(0).breaker_open);
    EXPECT_EQ(lb->record(0).half_open_left, 0);
  });
  s.run();
  EXPECT_EQ(lb->breaker_trips(), 2u);
}

TEST(HealthProber, ProbesEveryWorkerAndTimesOutSilentOnes) {
  Simulation s;
  auto lb = make_lb(s, breaker_config());
  ProberConfig pc;
  pc.enabled = true;
  pc.timeout = SimTime::millis(30);
  // Worker 0 never answers; the rest answer in 1 ms.
  HealthProber prober(
      s, *lb,
      [&s](int worker, probe::ProbePool::ReplyFn done) {
        if (worker == 0) return;  // silent — the prober's timeout must cover it
        s.after(SimTime::millis(1),
                [done = std::move(done)] { done(true, 0.0, 0.0); });
      },
      pc);
  s.run_until(SimTime::seconds(1));
  EXPECT_GT(prober.probes_sent(), 30u);   // 4 workers, ~10 rounds
  EXPECT_GE(prober.probes_timed_out(), 5u);
  EXPECT_GT(lb->record(0).probe_failures, 0u);
  EXPECT_EQ(lb->record(1).probe_failures, 0u);
  EXPECT_LT(lb->record(0).health, 0.1);
  EXPECT_GT(lb->record(1).health, 0.9);
  EXPECT_TRUE(lb->record(0).breaker_open);
  EXPECT_FALSE(lb->record(1).breaker_open);
}

TEST(RetryBudget, TokenBucketDepositAndDenial) {
  RetryBudget budget(0.5, 2.0);
  EXPECT_TRUE(budget.try_take());   // 2 -> 1
  EXPECT_TRUE(budget.try_take());   // 1 -> 0
  EXPECT_FALSE(budget.try_take());  // dry
  EXPECT_EQ(budget.taken(), 2u);
  EXPECT_EQ(budget.denied(), 1u);
  budget.deposit();
  EXPECT_FALSE(budget.try_take());  // 0.5 token is not a whole retry
  budget.deposit();
  EXPECT_TRUE(budget.try_take());
  for (int i = 0; i < 100; ++i) budget.deposit();
  EXPECT_DOUBLE_EQ(budget.tokens(), 2.0);  // capped at burst
}

// Satellite: sustained 100% failure must not turn into a retry storm. With
// ratio r, every arrival deposits r tokens and each retry costs one, so the
// steady-state retry rate is bounded by r * arrival rate no matter how long
// the outage lasts (plus the one-time burst allowance).
TEST(RetryBudget, SustainedTotalFailureClampsRetryStorm) {
  const double ratio = 0.2;
  const double burst = 20.0;
  RetryBudget budget(ratio, burst);
  const int arrivals = 10'000;
  std::uint64_t retries = 0;
  for (int i = 0; i < arrivals; ++i) {
    budget.deposit();            // the request arrives...
    if (budget.try_take()) ++retries;  // ...fails, and asks for a retry
  }
  // Bounded by ratio * arrivals + the initial burst, not by arrivals.
  EXPECT_LE(retries, static_cast<std::uint64_t>(ratio * arrivals + burst));
  EXPECT_GE(retries, static_cast<std::uint64_t>(ratio * arrivals * 0.9));
  EXPECT_EQ(budget.taken(), retries);
  EXPECT_EQ(budget.denied(), static_cast<std::uint64_t>(arrivals) - retries);
  // The bucket ends dry: each surviving token is immediately spent.
  EXPECT_LT(budget.tokens(), 1.0);
}

TEST(RetryConfig, BackoffDoublesAndCaps) {
  RetryConfig rc;
  rc.base_backoff = SimTime::millis(20);
  rc.max_backoff = SimTime::millis(100);
  EXPECT_EQ(rc.backoff(0), SimTime::millis(20));
  EXPECT_EQ(rc.backoff(1), SimTime::millis(40));
  EXPECT_EQ(rc.backoff(2), SimTime::millis(80));
  EXPECT_EQ(rc.backoff(3), SimTime::millis(100));
  EXPECT_EQ(rc.backoff(9), SimTime::millis(100));
}

// End-to-end: a backend crash under the stock blocking mechanism surfaces as
// client-visible errors; the resilience layer (prober + breaker + budgeted
// retries) absorbs the same crash.
TEST(Resilience, CrashRecoveryBeatsStockBlocking) {
  using experiment::ExperimentConfig;
  auto base = [] {
    ExperimentConfig c;
    c.label = "resilience_crash";
    c.num_apaches = 1;
    c.num_tomcats = 2;
    c.num_clients = 200;
    c.think_mean = SimTime::millis(200);
    c.warmup = SimTime::millis(500);
    c.tomcat_millibottlenecks = false;
    c.tracing = false;
    millib::FaultSpec crash;
    crash.kind = millib::FaultKind::kCrash;
    crash.worker = 0;
    crash.start = SimTime::seconds(2);
    crash.duration = SimTime::seconds(2);
    c.fault_plan = millib::FaultPlan::single(crash);
    return c;
  };

  auto stock = experiment::run_chaos(base(), SimTime::seconds(8),
                                     SimTime::seconds(6));
  auto resilient_cfg = base();
  resilient_cfg.enable_resilience();
  auto resilient = experiment::run_chaos(std::move(resilient_cfg),
                                         SimTime::seconds(8),
                                         SimTime::seconds(6));

  // Both runs stay safe...
  EXPECT_TRUE(stock.invariants.ok()) << stock.invariants.to_string();
  EXPECT_TRUE(resilient.invariants.ok()) << resilient.invariants.to_string();
  // ...but only the stock mechanism exposes the crash to clients.
  EXPECT_GT(stock.invariants.failed, 0u);
  EXPECT_LT(resilient.invariants.failed, stock.invariants.failed);
  EXPECT_GT(resilient.summary.health_probes_sent, 0u);
  EXPECT_GE(resilient.summary.breaker_trips, 1u);
  EXPECT_GT(resilient.summary.retries, 0u);
  EXPECT_GT(resilient.summary.retry_successes, 0u);
}

// Flap regression: a worker that passes its probes, gets re-admitted, and
// immediately fails on the data path again (the gray-failure signature) must
// not oscillate at the open_duration cadence — each flap doubles the dwell.
TEST(Breaker, FlapEscalatesOpenDwellExponentially) {
  Simulation s;
  auto lb = make_lb(s, breaker_config());  // open 500 ms, 2 half-open trials
  lb->report_probe(0, false, SimTime::millis(30));
  lb->report_probe(0, false, SimTime::millis(30));
  ASSERT_TRUE(lb->record(0).breaker_open);  // first trip: base dwell

  // Readmitted at 600 ms, fails its trial => flap #1, dwell 1000 ms.
  s.after(SimTime::millis(600), [&] {
    lb->report_probe(0, true, SimTime::millis(1));
    ASSERT_FALSE(lb->record(0).breaker_open);
    lb->report_failure(0);
    EXPECT_TRUE(lb->record(0).breaker_open);
    EXPECT_EQ(lb->record(0).breaker_flaps, 1u);
  });
  // 600 ms after the re-trip — past the BASE dwell — a good probe must NOT
  // re-admit: the escalated dwell runs to 1600 ms.
  s.after(SimTime::millis(1200), [&] {
    lb->report_probe(0, true, SimTime::millis(1));
    EXPECT_TRUE(lb->record(0).breaker_open);
  });
  // Readmitted after the doubled dwell, flaps again => dwell 2000 ms.
  s.after(SimTime::millis(1700), [&] {
    lb->report_probe(0, true, SimTime::millis(1));
    ASSERT_FALSE(lb->record(0).breaker_open);
    lb->report_failure(0);
    EXPECT_TRUE(lb->record(0).breaker_open);
    EXPECT_EQ(lb->record(0).breaker_flaps, 2u);
  });
  s.after(SimTime::millis(2500), [&] {  // 2500 < 1700 + 2000: still out
    lb->report_probe(0, true, SimTime::millis(1));
    EXPECT_TRUE(lb->record(0).breaker_open);
  });
  // The recovery step-down force-closes the breaker and clears the streak.
  s.after(SimTime::millis(2600), [&] {
    EXPECT_EQ(lb->reset_breakers(), 1);
    EXPECT_FALSE(lb->record(0).breaker_open);
  });
  // A fresh trip after the flap window has lapsed starts at the base dwell
  // again (the escalation is hysteresis, not a permanent penalty).
  s.after(SimTime::millis(5000), [&] {
    lb->report_probe(0, false, SimTime::millis(30));
    lb->report_probe(0, false, SimTime::millis(30));
    EXPECT_TRUE(lb->record(0).breaker_open);
    EXPECT_EQ(lb->record(0).breaker_flaps, 2u);  // unchanged: not a flap
  });
  s.after(SimTime::millis(5600), [&] {
    lb->report_probe(0, true, SimTime::millis(1));
    EXPECT_FALSE(lb->record(0).breaker_open);  // base 500 ms dwell elapsed
  });
  s.run();
  EXPECT_EQ(lb->breaker_trips(), 4u);
}

}  // namespace
}  // namespace ntier::lb
