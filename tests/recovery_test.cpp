#include "recovery/orchestrator.h"

#include <gtest/gtest.h>

#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "chaos_matrix.h"
#include "cli/cli.h"
#include "experiment/chaos.h"
#include "experiment/config.h"
#include "experiment/experiment.h"
#include "experiment/metastable.h"
#include "experiment/summary.h"
#include "millib/fault_plan.h"
#include "obs/trace.h"
#include "obs/trace_io.h"
#include "sim/simulation.h"
#include "sim/time.h"

namespace ntier::experiment {
namespace {

using sim::SimTime;
using sim::Simulation;

// ---------------------------------------------------------------------------
// Orchestrator unit tests: drive the control loop with synthetic signals so
// every hysteresis edge is exercised on exact tick boundaries.
// ---------------------------------------------------------------------------

struct OrchHarness {
  Simulation s;
  double queue = 0;
  std::uint64_t retries = 0;
  std::uint64_t firsts = 0;
  int suppress_on = 0, suppress_off = 0;
  int shed_on = 0, shed_off = 0;
  int gate_on = 0, gate_off = 0;
  int resets = 0;
  std::unique_ptr<recovery::RecoveryOrchestrator> orch;

  OrchHarness() {
    recovery::RecoveryConfig cfg;
    cfg.enabled = true;
    cfg.warmup = SimTime::zero();
    recovery::RecoverySignals sig;
    sig.queue_depth = [this] { return queue; };
    sig.retries = [this] { return retries; };
    sig.first_attempts = [this] { return firsts; };
    recovery::RecoveryActions act;
    act.suppress_retries = [this](bool on) {
      ++(on ? suppress_on : suppress_off);
    };
    act.hard_shed = [this](bool on) { ++(on ? shed_on : shed_off); };
    act.gate_refills = [this](bool on) { ++(on ? gate_on : gate_off); };
    act.reset_breakers = [this] {
      ++resets;
      return 2;
    };
    orch = std::make_unique<recovery::RecoveryOrchestrator>(
        s, cfg, std::move(sig), std::move(act));
    orch->start();
  }

  /// Mid-window (tick k digests [k*100ms, (k+1)*100ms)), deliver `n`
  /// completions at `latency_ms` and advance the sampled signals. Call only
  /// before run_until (schedules at absolute times).
  void feed(int from_tick, int ticks, int n, double latency_ms, double q = 2.0,
            std::uint64_t d_firsts = 100, std::uint64_t d_retries = 0) {
    for (int k = from_tick; k < from_tick + ticks; ++k) {
      s.after(SimTime::millis(k * 100 + 50), [this, n, latency_ms, q, d_firsts,
                                              d_retries] {
        queue = q;
        firsts += d_firsts;
        retries += d_retries;
        obs::TraceEvent e;
        e.kind = obs::EventKind::kClientDone;
        e.value = latency_ms;
        for (int i = 0; i < n; ++i) orch->observe(e);
      });
    }
  }
};

TEST(RecoveryOrchestrator, EpisodeLifecycleAndStagedInterventions) {
  OrchHarness h;
  h.feed(0, 10, 20, 2.0);                       // healthy: baseline ~2 ms
  h.feed(10, 10, 20, 20.0, 20.0, 100, 50);      // 10x latency, retry storm
  h.feed(20, 12, 20, 2.0);                      // recovered
  // Stop with the last fed window digested: an unfed window would read as a
  // goodput collapse (starved) and count degraded.
  h.s.run_until(SimTime::millis(3250));

  const auto& st = h.orch->stats();
  EXPECT_EQ(st.episodes, 1u);
  EXPECT_EQ(st.degraded_ticks, 10u);
  EXPECT_GT(st.episode_ticks, 0u);
  EXPECT_FALSE(h.orch->episode_active());
  // Every stage tripped exactly once and was lifted again.
  EXPECT_EQ(h.suppress_on, 1);
  EXPECT_GE(h.suppress_off, 1);
  EXPECT_EQ(h.shed_on, 1);
  EXPECT_GE(h.shed_off, 1);
  EXPECT_EQ(h.gate_on, 1);
  EXPECT_EQ(h.gate_off, 1);
  // Step-down closed the breakers the episode left open (stubbed: 2).
  EXPECT_EQ(h.resets, 1);
  EXPECT_EQ(st.breaker_resets, 2u);
  EXPECT_EQ(st.retry_suppressions, 1u);
  EXPECT_EQ(st.hard_sheds, 1u);
  EXPECT_EQ(st.refill_gates, 1u);
  EXPECT_NEAR(h.orch->baseline_latency_ms(), 2.0, 0.5);
}

TEST(RecoveryOrchestrator, ReDegradationDuringStepDownExtendsTheEpisode) {
  OrchHarness h;
  h.feed(0, 10, 20, 2.0);
  h.feed(10, 5, 20, 20.0, 20.0, 100, 50);  // declare
  h.feed(15, 5, 20, 2.0);                  // 5 healthy ticks < kExitTicks (8)
  h.feed(20, 5, 20, 20.0, 20.0, 100, 50);  // trigger re-fires mid step-down
  h.feed(25, 12, 20, 2.0);                 // now exit for real
  h.s.run_until(SimTime::millis(3750));

  // The re-fire resets the healthy streak inside the SAME episode: exit
  // hysteresis exists precisely so this is one incident, not two.
  EXPECT_EQ(h.orch->stats().episodes, 1u);
  EXPECT_FALSE(h.orch->episode_active());
  // Per-stage hysteresis re-applied the paused interventions on the re-fire.
  EXPECT_EQ(h.suppress_on, 2);
  EXPECT_EQ(h.suppress_off, 2);
  EXPECT_EQ(h.shed_on, 2);
  EXPECT_EQ(h.shed_off, 2);
  // The refill gate spans the whole episode: one application, one lift.
  EXPECT_EQ(h.gate_on, 1);
  EXPECT_EQ(h.gate_off, 1);
  EXPECT_EQ(h.resets, 1);
}

TEST(RecoveryOrchestrator, ShortBlipsBelowEnterTicksNeverDeclare) {
  OrchHarness h;
  h.feed(0, 10, 20, 2.0);
  for (int k = 0; k < 4; ++k) {
    h.feed(10 + 3 * k, 2, 20, 20.0);  // 2 degraded ticks (enter needs 3)
    h.feed(12 + 3 * k, 1, 20, 2.0);   // ...and the streak resets
  }
  h.s.run_until(SimTime::millis(2250));
  EXPECT_EQ(h.orch->stats().episodes, 0u);
  EXPECT_GT(h.orch->stats().degraded_ticks, 0u);
  EXPECT_EQ(h.gate_on, 0);
  EXPECT_EQ(h.suppress_on, 0);
  EXPECT_EQ(h.resets, 0);
}

TEST(RecoveryOrchestrator, BaselineLearnsOnlyFromHealthyTicks) {
  OrchHarness h;
  h.feed(0, 10, 20, 2.0);
  h.feed(10, 20, 20, 60.0);  // long degraded plateau
  h.s.run_until(SimTime::millis(3050));
  EXPECT_EQ(h.orch->stats().episodes, 1u);
  // The plateau must not drag the learned baseline toward 60 ms — else the
  // orchestrator would declare the degraded state "recovered".
  EXPECT_LT(h.orch->baseline_latency_ms(), 3.0);
}

TEST(RecoveryOrchestrator, ZeroCompletionTicksCountAsDegraded) {
  OrchHarness h;
  h.feed(0, 10, 20, 2.0);
  // Then nothing: a full goodput collapse produces NO completions, which
  // must read as degraded (starved), not as "no data, all quiet".
  h.s.run_until(SimTime::millis(2100));
  EXPECT_EQ(h.orch->stats().episodes, 1u);
  EXPECT_TRUE(h.orch->episode_active());
}

// ---------------------------------------------------------------------------
// Gray faults end to end.
// ---------------------------------------------------------------------------

ExperimentConfig small_resilient_config() {
  ExperimentConfig c;
  c.label = "gray_e2e";
  c.num_clients = 400;
  c.think_mean = SimTime::millis(200);
  c.duration = SimTime::seconds(10);
  c.warmup = SimTime::seconds(2);
  c.tomcat_millibottlenecks = false;
  // Round robin keeps feeding the gray worker (a busyness policy would mask
  // the latency signal by routing around it — the bench quantifies both),
  // and little enough CPU headroom that a gray slowdown really queues.
  c.policy = lb::PolicyKind::kRoundRobin;
  c.workload.demand_scale = 2.0;
  c.enable_resilience();
  return c;
}

TEST(GrayFault, DataPathFaultEvadesProberAndBreaker) {
  auto healthy = small_resilient_config();
  Experiment base(healthy);
  base.run();
  const RunSummary base_sum = summarize(base);

  auto cfg = small_resilient_config();
  millib::FaultSpec f;
  f.kind = millib::FaultKind::kGrayDataPath;
  f.worker = 0;
  f.severity = 0.95;  // 20x data-path inflation, probe path untouched
  f.start = SimTime::seconds(3);
  f.duration = SimTime::seconds(6);
  cfg.fault_plan = millib::FaultPlan::single(f);
  Experiment gray(cfg);
  gray.run();
  const RunSummary gray_sum = summarize(gray);

  // The fault really degraded the data path...
  EXPECT_GT(gray_sum.gray_inflated_ops, 0u);
  EXPECT_GT(gray_sum.mean_rt_ms, 1.5 * base_sum.mean_rt_ms);
  // ...while every health signal stayed green: no probe ever timed out and
  // no breaker ever tripped (the defining property of a gray failure).
  for (int i = 0; i < gray.num_apaches(); ++i) {
    EXPECT_EQ(gray.apache(i).balancer().breaker_trips(), 0u);
    ASSERT_NE(gray.apache(i).route().prober(), nullptr);
    EXPECT_EQ(gray.apache(i).route().prober()->probes_timed_out(), 0u);
  }
}

TEST(GrayFault, TwoOverlappingFaultsApplyAndClearIndependently) {
  auto cfg = small_resilient_config();
  millib::FaultSpec a;
  a.kind = millib::FaultKind::kGrayDataPath;
  a.worker = 0;
  a.severity = 0.9;
  a.start = SimTime::seconds(3);
  a.duration = SimTime::seconds(4);
  millib::FaultSpec b = a;
  b.worker = 1;
  b.severity = 0.8;
  b.start = SimTime::seconds(5);  // overlaps [5,7) with worker 0's window
  cfg.fault_plan = millib::FaultPlan::single(a);
  cfg.fault_plan.specs.push_back(b);

  Experiment e(cfg);
  e.run();
  const RunSummary sum = summarize(e);
  EXPECT_GT(sum.completed, 0);
  // Both workers served gray-inflated requests...
  EXPECT_GT(e.tomcat(0).gray_inflated(), 0u);
  EXPECT_GT(e.tomcat(1).gray_inflated(), 0u);
  // ...and both faults cleared at their own end times.
  EXPECT_FALSE(e.tomcat(0).gray_degraded());
  EXPECT_FALSE(e.tomcat(1).gray_degraded());
}

// Satellite: gray cells of the chaos matrix with the recovery layer active —
// the safety invariants must survive its interventions in every cell.
TEST(GrayChaosMatrix, RecoveryOnCellsPreserveInvariants) {
  ChaosMatrixOptions opt;
  opt.resilience = true;
  opt.recovery = true;
  const auto results = run_gray_chaos_matrix(opt);
  ASSERT_FALSE(results.empty());
  std::uint64_t gray_ops = 0;
  for (const auto& r : results) {
    SCOPED_TRACE(r.label);
    EXPECT_TRUE(r.invariants.ok()) << r.invariants.to_string();
    EXPECT_GT(r.invariants.completed, 0u);
    gray_ops += r.summary.gray_inflated_ops;
  }
  EXPECT_GT(gray_ops, 0u);  // the gray schedule really ran
}

// ---------------------------------------------------------------------------
// CLI wiring.
// ---------------------------------------------------------------------------

cli::ParseResult parse(std::initializer_list<std::string> args) {
  return cli::parse_cli(std::vector<std::string>(args));
}

TEST(RecoveryCli, RecoveryFlagTogglesTheOrchestrator) {
  auto on = parse({"--recovery", "on"});
  ASSERT_TRUE(on.ok()) << on.error;
  EXPECT_TRUE(on.options->config.recovery.enabled);

  auto off = parse({"--recovery", "off"});
  ASSERT_TRUE(off.ok()) << off.error;
  EXPECT_FALSE(off.options->config.recovery.enabled);

  EXPECT_FALSE(parse({"--recovery", "maybe"}).ok());
  EXPECT_FALSE(parse({"--recovery"}).ok());
}

TEST(RecoveryCli, GrayFaultFlagParsesAndValidates) {
  auto ok = parse({"--gray-fault", "data_path"});
  ASSERT_TRUE(ok.ok()) << ok.error;
  EXPECT_EQ(ok.options->gray_fault, "data_path");
  EXPECT_FALSE(parse({"--gray-fault", "bogus"}).ok());
  // The slow-replica gray fault only exists on the KV tier.
  EXPECT_FALSE(parse({"--gray-fault", "replica"}).ok());
}

TEST(RecoveryCli, OrchestratorOnlyBuiltWhenEnabled) {
  auto cfg = small_resilient_config();
  cfg.num_clients = 50;
  cfg.duration = SimTime::seconds(1);
  cfg.warmup = SimTime::millis(200);
  {
    Experiment e(cfg);
    EXPECT_EQ(e.recovery(), nullptr);
  }
  cfg.recovery.enabled = true;
  {
    Experiment e(cfg);
    EXPECT_NE(e.recovery(), nullptr);
  }
}

// ---------------------------------------------------------------------------
// Byte-determinism of a full metastable run, event trace included.
// ---------------------------------------------------------------------------

TEST(MetastableDeterminism, FullRunIsByteIdenticalIncludingEventTrace) {
  MetastableOptions opt;
  opt.kind = MetastableKind::kRetryStorm;
  opt.vulnerable = true;
  opt.recovery = true;
  opt.duration = SimTime::seconds(12);
  opt.warmup = SimTime::seconds(2);
  opt.trigger_start = SimTime::seconds(5);
  opt.trigger_duration = SimTime::millis(1500);

  // The summary carries every recovery counter (ticks, episodes and each
  // intervention), so comparing it compares what the loop did.
  auto run_once = [&](std::string* summary_json, std::string* trace_bytes) {
    ExperimentConfig c = metastable_config(opt);
    c.event_trace = true;
    Experiment e(c);
    e.run();
    ASSERT_NE(e.recovery(), nullptr);
    *summary_json = summarize(e).to_json_string();
    ASSERT_NE(e.trace(), nullptr);
    std::ostringstream os;
    obs::write_jsonl(os, *e.trace());
    *trace_bytes = os.str();
  };

  std::string json1, trace1, json2, trace2;
  run_once(&json1, &trace1);
  run_once(&json2, &trace2);
  EXPECT_EQ(json1, json2);
  ASSERT_FALSE(trace1.empty());
  EXPECT_EQ(trace1, trace2);  // the full event stream, byte for byte
}

}  // namespace
}  // namespace ntier::experiment
