#include "experiment/chaos.h"

#include <gtest/gtest.h>

#include "chaos_matrix.h"
#include "experiment/config.h"
#include "experiment/experiment.h"
#include "millib/fault_plan.h"

namespace ntier::experiment {
namespace {

using sim::SimTime;

TEST(ChaosMatrix, PlanIsSeedDeterministicAcrossCells) {
  const ChaosMatrixOptions opt;
  EXPECT_EQ(matrix_plan(opt).trace_string(), matrix_plan(opt).trace_string());
  auto other = opt;
  other.chaos_seed = 43;
  EXPECT_NE(matrix_plan(opt).trace_string(), matrix_plan(other).trace_string());
}

// The headline safety check: one seeded fault schedule replayed against
// every policy x mechanism combination, with all three invariants holding
// in every cell.
TEST(ChaosMatrix, AllPoliciesAndMechanismsSurviveTheFaultSchedule) {
  const auto results = run_chaos_matrix({});
  ASSERT_EQ(results.size(), 21u);  // 7 policies x 3 mechanisms
  for (const auto& r : results) {
    SCOPED_TRACE(r.label);
    EXPECT_TRUE(r.invariants.conservation_ok()) << r.invariants.to_string();
    EXPECT_TRUE(r.invariants.pools_ok()) << r.invariants.to_string();
    EXPECT_TRUE(r.invariants.crash_ok()) << r.invariants.to_string();
    EXPECT_GT(r.invariants.issued, 0u);
    EXPECT_GT(r.invariants.completed, 0u);
    // Every request of the closed loop is released once the drain settles.
    EXPECT_EQ(r.invariants.requests_live, 0u);
    EXPECT_FALSE(r.fault_trace.empty());
  }
}

// Same matrix with the resilience layer on: the safety properties must be
// preserved when the prober, breaker and retry path are all active.
TEST(ChaosMatrix, ResilienceLayerPreservesInvariants) {
  ChaosMatrixOptions opt;
  opt.resilience = true;
  opt.chaos_seed = 7;
  const auto results = run_chaos_matrix(opt);
  ASSERT_EQ(results.size(), 21u);
  std::uint64_t probes = 0;
  for (const auto& r : results) {
    SCOPED_TRACE(r.label);
    EXPECT_TRUE(r.invariants.ok()) << r.invariants.to_string();
    probes += r.summary.health_probes_sent;
  }
  EXPECT_GT(probes, 0u);  // the prober really ran in the resilient cells
}

// Full overload control on top of the fault schedule: deadline, admission
// and CoDel sheds are answered (fast 503s), never lost, so conservation and
// the pool/crash invariants must hold in every cell exactly as before.
TEST(ChaosMatrix, OverloadControlPreservesInvariants) {
  ChaosMatrixOptions opt;
  opt.overload = control::OverloadMode::kFull;
  opt.chaos_seed = 11;
  const auto results = run_chaos_matrix(opt);
  ASSERT_EQ(results.size(), 21u);
  for (const auto& r : results) {
    SCOPED_TRACE(r.label);
    EXPECT_TRUE(r.invariants.ok()) << r.invariants.to_string();
    EXPECT_GT(r.invariants.completed, 0u);
  }
}

// The recovery orchestrator on top of the fault schedule: its retry
// suppression, hard sheds and breaker resets must leave every invariant
// intact in every cell, and the option must reach the cells at all.
TEST(ChaosMatrix, RecoveryLayerPreservesInvariants) {
  ChaosMatrixOptions opt;
  opt.recovery = true;
  const auto results = run_chaos_matrix(opt);
  ASSERT_EQ(results.size(), 21u);
  std::uint64_t degraded_ticks = 0;
  for (const auto& r : results) {
    SCOPED_TRACE(r.label);
    EXPECT_TRUE(r.invariants.ok()) << r.invariants.to_string();
    EXPECT_GT(r.invariants.completed, 0u);
    degraded_ticks += r.summary.recovery_degraded_ticks;
  }
  EXPECT_GT(degraded_ticks, 0u);  // the orchestrator really ran
}

// Satellite 4: identical seeds must give byte-identical runs — summary JSON
// and the applied/cleared fault trace both match.
TEST(ChaosDeterminism, IdenticalSeedsProduceIdenticalTraces) {
  auto make_config = [] {
    ExperimentConfig c;
    c.label = "chaos_determinism";
    c.seed = 99;
    c.num_apaches = 2;
    c.num_tomcats = 3;
    c.num_clients = 150;
    c.think_mean = SimTime::millis(200);
    c.warmup = SimTime::millis(500);
    c.tomcat_millibottlenecks = false;
    c.tracing = false;
    millib::FaultPlanConfig fc;
    fc.initial_offset = SimTime::seconds(1);
    fc.mean_gap = SimTime::millis(700);
    fc.max_duration = SimTime::millis(1000);
    fc.max_faults = 8;
    fc.horizon = SimTime::seconds(4);
    c.fault_plan = millib::FaultPlan::randomized(5, fc, 3);
    c.enable_resilience();
    return c;
  };

  const auto a =
      run_chaos(make_config(), SimTime::seconds(5), SimTime::seconds(6));
  const auto b =
      run_chaos(make_config(), SimTime::seconds(5), SimTime::seconds(6));

  EXPECT_GT(a.invariants.issued, 0u);
  EXPECT_FALSE(a.fault_trace.empty());
  EXPECT_EQ(a.fault_trace, b.fault_trace);
  EXPECT_EQ(a.summary.to_json_string(), b.summary.to_json_string());
  EXPECT_EQ(a.summary.breaker_trips, b.summary.breaker_trips);
  EXPECT_EQ(a.summary.retries, b.summary.retries);
  EXPECT_EQ(a.summary.health_probes_sent, b.summary.health_probes_sent);
  // And a different chaos seed actually changes the episode trace.
  auto c = make_config();
  millib::FaultPlanConfig fc;
  fc.initial_offset = SimTime::seconds(1);
  fc.mean_gap = SimTime::millis(700);
  fc.max_duration = SimTime::millis(1000);
  fc.max_faults = 8;
  fc.horizon = SimTime::seconds(4);
  c.fault_plan = millib::FaultPlan::randomized(6, fc, 3);
  const auto d = run_chaos(std::move(c), SimTime::seconds(5),
                           SimTime::seconds(6));
  EXPECT_NE(a.fault_trace, d.fault_trace);
}

// -- KV chaos matrix: replica-crash and shard-migration cells -----------------

TEST(KvChaosMatrix, PlanIsSeedDeterministic) {
  const ChaosMatrixOptions opt;
  EXPECT_EQ(kv_matrix_plan(opt).trace_string(),
            kv_matrix_plan(opt).trace_string());
  auto other = opt;
  other.chaos_seed = 43;
  EXPECT_NE(kv_matrix_plan(opt).trace_string(),
            kv_matrix_plan(other).trace_string());
  // The schedule holds both KV fault families.
  const std::string trace = kv_matrix_plan(opt).trace_string();
  EXPECT_NE(trace.find(millib::to_string(millib::FaultKind::kReplicaCrash)),
            std::string::npos)
      << trace;
  EXPECT_NE(trace.find(millib::to_string(millib::FaultKind::kShardMigration)),
            std::string::npos)
      << trace;
}

// The hinted-handoff accounting invariant across the whole KV cell slice:
// every write issued is applied, shed by a handover, or counted as
// quorum-failed, and every missed per-replica write resolves to a replayed
// hint or a counted drop — no silent loss. The plan keeps the crashes
// non-overlapping, so with N=3, R=W=2 no quorum op may fail at all.
TEST(KvChaosMatrix, QuorumsAndHandoffAccountingHoldInEveryCell) {
  const auto results = run_kv_chaos_matrix({});
  ASSERT_EQ(results.size(), 8u);  // 4 policies x 2 mechanisms
  for (const auto& r : results) {
    SCOPED_TRACE(r.label);
    EXPECT_TRUE(r.invariants.ok()) << r.invariants.to_string();
    EXPECT_GT(r.invariants.kv.reads_issued, 0u);
    EXPECT_GT(r.invariants.kv.writes_issued, 0u);
    EXPECT_EQ(r.invariants.kv.quorum_failed_reads, 0u);
    EXPECT_EQ(r.invariants.kv.quorum_failed_writes, 0u);
    EXPECT_EQ(r.invariants.kv.hints_pending(), 0u);
    EXPECT_EQ(r.invariants.kv.crashed_dispatches, 0u);
    EXPECT_EQ(r.invariants.kv_ops_in_flight, 0u);
    // Laggard replies from the crashed and restarted replicas have landed,
    // so no quorum op and no request is still held.
    EXPECT_EQ(r.invariants.kv_ops_held, 0u);
    EXPECT_EQ(r.invariants.requests_live, 0u);
    // Both crashes bit (missed writes replayed) and the shard spent time
    // below full replication.
    EXPECT_GT(r.summary.kv_hints_replayed, 0u);
    EXPECT_GT(r.summary.kv_degraded_ms, 0.0);
  }
}

TEST(KvChaosMatrix, CellsAreSeedDeterministic) {
  const ChaosMatrixOptions opt;
  const auto a = run_kv_chaos_matrix(opt);
  const auto b = run_kv_chaos_matrix(opt);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].fault_trace, b[i].fault_trace);
    EXPECT_EQ(a[i].summary.to_json_string(), b[i].summary.to_json_string());
  }
}

}  // namespace
}  // namespace ntier::experiment
