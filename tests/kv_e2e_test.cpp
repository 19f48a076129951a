// End-to-end tests of the replicated KV data tier inside the full n-tier
// stack: quorum failover under a replica crash (the availability headline),
// hot-shard millibottlenecks that server-choice policies cannot route
// around, and the byte-determinism / jobs-invariance guarantees every
// subsystem must preserve.
#include <gtest/gtest.h>

#include "experiment/chaos.h"
#include "experiment/experiment.h"
#include "experiment/summary.h"
#include "experiment/sweep.h"
#include "kv/ring.h"
#include "millib/fault_plan.h"
#include "sim/rng.h"

namespace ntier::experiment {
namespace {

using sim::SimTime;

ExperimentConfig kv_base(const char* label) {
  ExperimentConfig c;
  c.label = label;
  c.num_apaches = 2;
  c.num_tomcats = 3;
  c.num_clients = 300;
  c.think_mean = SimTime::millis(200);
  c.warmup = SimTime::millis(500);
  c.policy = lb::PolicyKind::kCurrentLoad;
  c.mechanism = lb::MechanismKind::kNonBlocking;
  c.tomcat_millibottlenecks = false;
  c.tracing = false;
  c.db_tier = server::DbTier::kKv;
  c.kv.replicas = 5;  // N=3, R=W=2 defaults
  return c;
}

/// The shard the Zipf-hottest key (rank 0) maps to, and its primary.
int hot_primary(const ExperimentConfig& c) {
  const kv::HashRing ring(c.kv.replicas, c.kv.vnodes);
  const auto shard = sim::Rng::mix64(0) % static_cast<std::uint64_t>(c.kv.shards);
  return ring.preference_list(shard, c.kv.n)[0];
}

// The acceptance headline: with N=3, R=W=2 and one replica crashed for the
// middle third of the run, no quorum op fails and every missed write is
// replayed via hinted handoff once the replica recovers.
TEST(KvE2e, ReplicaCrashIsMaskedByQuorumAndHintedHandoff) {
  ExperimentConfig c = kv_base("kv_crash_failover");
  const SimTime traffic = SimTime::seconds(6);
  millib::FaultSpec crash;
  crash.kind = millib::FaultKind::kReplicaCrash;
  crash.worker = hot_primary(c);
  crash.start = traffic / 3;
  crash.duration = traffic / 3;
  c.fault_plan = millib::FaultPlan::single(crash);

  const ChaosRunResult r = run_chaos(std::move(c), traffic, SimTime::seconds(6));

  EXPECT_TRUE(r.invariants.ok()) << r.invariants.to_string();
  EXPECT_GT(r.invariants.kv.reads_issued, 0u);
  EXPECT_GT(r.invariants.kv.writes_issued, 0u);
  EXPECT_EQ(r.invariants.kv.quorum_failed_reads, 0u);
  EXPECT_EQ(r.invariants.kv.quorum_failed_writes, 0u);
  EXPECT_EQ(r.invariants.kv.hints_pending(), 0u);
  EXPECT_EQ(r.invariants.kv.crashed_dispatches, 0u);
  // The crash actually bit: writes missed the dead replica and were
  // replayed on recovery, and the shard spent time degraded.
  EXPECT_GT(r.summary.kv_hints_replayed, 0u);
  EXPECT_EQ(r.summary.kv_handoff_dropped, 0u);
  EXPECT_GT(r.summary.kv_degraded_ms, 0.0);
  EXPECT_EQ(r.summary.balancer_errors, 0u);
}

// The limitation headline: a millibottleneck pinned to the hot key's shard
// members produces VLRTs that even a probe-fresh server-choice policy
// cannot eliminate — every upstream path converges on the same quorum.
TEST(KvE2e, HotShardStallsProduceVlrtsUnderProbePolicy) {
  ExperimentConfig c = kv_base("kv_hot_shard");
  c.policy = lb::PolicyKind::kPrequal;  // the strongest server-choice policy
  c.duration = SimTime::seconds(8);
  c.workload.key_space = 10'000;
  c.workload.zipf_s = 1.1;
  c.kv_millibottlenecks = true;
  c.injector.period = SimTime::seconds(5);
  c.injector.duration = SimTime::millis(1500);  // outlasts the 1 s VLRT bar
  c.injector.severity = 1.0;
  c.injector.initial_offset = SimTime::seconds(3);

  Experiment e(std::move(c));
  e.run();

  EXPECT_GT(e.log().vlrt_count(), 0u);
  const auto& ks = e.kv_tier()->stats();
  EXPECT_EQ(ks.quorum_failed_reads + ks.quorum_failed_writes, 0u);
  EXPECT_GT(ks.mean_quorum_wait_ms(), 0.0);
}

// Without the stalls the same configuration is clean — the VLRTs above are
// the injector's doing, not the KV tier's baseline behaviour.
TEST(KvE2e, QuietKvTierHasNoVlrts) {
  ExperimentConfig c = kv_base("kv_quiet");
  c.duration = SimTime::seconds(6);
  Experiment e(std::move(c));
  e.run();
  EXPECT_EQ(e.log().vlrt_count(), 0u);
  EXPECT_GT(e.log().completed(), 0u);
}

TEST(KvE2e, KvRunIsByteDeterministic) {
  auto once = [] {
    ExperimentConfig c = kv_base("kv_determinism");
    c.duration = SimTime::seconds(5);
    c.workload.key_space = 10'000;
    c.workload.zipf_s = 1.1;
    millib::FaultSpec crash;
    crash.kind = millib::FaultKind::kReplicaCrash;
    crash.worker = hot_primary(c);
    crash.start = SimTime::seconds(1);
    crash.duration = SimTime::seconds(2);
    c.fault_plan = millib::FaultPlan::single(crash);
    Experiment e(std::move(c));
    e.run();
    return summarize(e).to_json_string();
  };
  EXPECT_EQ(once(), once());
}

TEST(KvE2e, KvSweepAggregatesAreJobsInvariant) {
  auto sweep = [](int jobs) {
    SweepConfig sc;
    sc.base = kv_base("kv_sweep");
    sc.base.num_clients = 200;
    sc.base.duration = SimTime::seconds(4);
    sc.num_runs = 3;
    sc.jobs = jobs;
    return SweepRunner(std::move(sc)).run().to_json_string();
  };
  EXPECT_EQ(sweep(1), sweep(4));
}

}  // namespace
}  // namespace ntier::experiment
