// End-to-end tests of the cache tier inside the full n-tier stack: warm-hit
// behaviour, invalidation storms under the chaos controller, the cache cell
// of the chaos invariant matrix, and the byte-determinism / jobs-invariance
// guarantees every subsystem must preserve.
#include <gtest/gtest.h>

#include <sstream>
#include <string>

#include "chaos_matrix.h"
#include "experiment/chaos.h"
#include "experiment/experiment.h"
#include "experiment/summary.h"
#include "experiment/sweep.h"
#include "millib/fault_plan.h"
#include "obs/trace_io.h"

namespace ntier::experiment {
namespace {

using sim::SimTime;

ExperimentConfig cache_base(const char* label) {
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
  c.workload.key_space = 10'000;
  c.workload.zipf_s = 1.1;
  c.cache_tier = true;
  c.cache.nodes = 2;
  return c;
}

// A quiet run: the Zipf-hot working set fits comfortably, so after warmup
// most reads are cache hits, and the accounting identities hold after drain.
TEST(CacheE2e, WarmCacheServesHitsWithCleanAccounting) {
  ExperimentConfig c = cache_base("cache_warm");
  const ChaosRunResult r =
      run_chaos(std::move(c), SimTime::seconds(5), SimTime::seconds(5));

  EXPECT_TRUE(r.invariants.ok()) << r.invariants.to_string();
  EXPECT_GT(r.invariants.cache.lookups, 0u);
  EXPECT_GT(r.invariants.cache.hits, 0u);
  EXPECT_GT(r.summary.cache_hit_ratio, 0.2);
  EXPECT_EQ(r.summary.balancer_errors, 0u);
}

// The storm fault applies through the chaos controller and actually bites:
// invalidations flow (some possibly dropped by the bounded queue), yet the
// identities still hold once the queues drain.
TEST(CacheE2e, InvalidationStormKeepsAccountingIntact) {
  ExperimentConfig c = cache_base("cache_storm");
  const SimTime traffic = SimTime::seconds(5);
  millib::FaultSpec storm;
  storm.kind = millib::FaultKind::kInvalidationStorm;
  storm.start = traffic / 3;
  storm.duration = traffic / 3;
  storm.severity = 2.0;
  c.fault_plan = millib::FaultPlan::single(storm);

  const ChaosRunResult r = run_chaos(std::move(c), traffic, SimTime::seconds(5));

  EXPECT_TRUE(r.invariants.ok()) << r.invariants.to_string();
  EXPECT_GT(r.invariants.cache.invalidations_sent, 0u);
  EXPECT_GT(r.summary.cache_invalidations, 0u);
  // The storm wiped hot keys, so some lookups after it must have missed.
  EXPECT_GT(r.invariants.cache.misses, 0u);
  EXPECT_EQ(r.invariants.cache_invalidations_pending, 0u);
}

TEST(CacheE2e, CacheRunIsByteDeterministic) {
  auto once = [] {
    ExperimentConfig c = cache_base("cache_determinism");
    c.duration = SimTime::seconds(4);
    c.event_trace = true;  // retain the event ring so the JSONL compares too
    millib::FaultSpec storm;
    storm.kind = millib::FaultKind::kInvalidationStorm;
    storm.start = SimTime::seconds(1);
    storm.duration = SimTime::seconds(1);
    storm.severity = 1.0;
    c.fault_plan = millib::FaultPlan::single(storm);
    Experiment e(std::move(c));
    e.run();
    std::ostringstream trace;
    obs::write_jsonl(trace, *e.trace());
    return summarize(e).to_json_string() + "\n" + trace.str();
  };
  EXPECT_EQ(once(), once());
}

TEST(CacheE2e, CacheSweepAggregatesAreJobsInvariant) {
  auto sweep = [](int jobs) {
    SweepConfig sc;
    sc.base = cache_base("cache_sweep");
    sc.base.num_clients = 200;
    sc.base.duration = SimTime::seconds(4);
    sc.num_runs = 3;
    sc.jobs = jobs;
    return SweepRunner(std::move(sc)).run().to_json_string();
  };
  EXPECT_EQ(sweep(1), sweep(8));
}

// -- Cache chaos matrix -------------------------------------------------------

ChaosMatrixOptions small_cache_matrix() {
  ChaosMatrixOptions opt;
  opt.traffic = SimTime::seconds(5);
  opt.drain = SimTime::seconds(5);
  return opt;
}

TEST(CacheChaosMatrix, PlanHoldsBothStormsAndTheCrash) {
  const auto opt = small_cache_matrix();
  const auto plan = cache_matrix_plan(opt);
  const std::string trace = plan.trace_string();
  EXPECT_NE(
      trace.find(millib::to_string(millib::FaultKind::kInvalidationStorm)),
      std::string::npos)
      << trace;
  EXPECT_NE(trace.find(millib::to_string(millib::FaultKind::kReplicaCrash)),
            std::string::npos)
      << trace;
  EXPECT_EQ(cache_matrix_plan(opt).trace_string(), trace);
}

// The cache accounting invariant across the whole cell slice: every lookup
// resolves, every miss fills or coalesces, every invalidation is delivered
// or counted as a drop, and nothing is pending once the drain ends — under
// storms overlapping a replica crash, for every policy x mechanism cell.
TEST(CacheChaosMatrix, CacheAccountingHoldsInEveryCell) {
  const auto results = run_cache_chaos_matrix(small_cache_matrix());
  ASSERT_EQ(results.size(), 8u);  // 4 policies x 2 mechanisms
  for (const auto& r : results) {
    SCOPED_TRACE(r.label);
    EXPECT_TRUE(r.invariants.ok()) << r.invariants.to_string();
    EXPECT_GT(r.invariants.cache.lookups, 0u);
    EXPECT_GT(r.invariants.cache.hits, 0u);
    EXPECT_GT(r.invariants.cache.invalidations_sent, 0u);
    // Every fill record and every request is released after the drain.
    EXPECT_EQ(r.invariants.cache_fills_held, 0u);
    EXPECT_EQ(r.invariants.requests_live, 0u);
    // The KV invariants keep holding underneath the cache.
    EXPECT_GT(r.invariants.kv.reads_issued, 0u);
    EXPECT_EQ(r.invariants.kv.quorum_failed_reads, 0u);
    EXPECT_EQ(r.invariants.kv.quorum_failed_writes, 0u);
  }
}

}  // namespace
}  // namespace ntier::experiment
