// Integration tests for the extension features on the full testbed:
// synthetic millibottleneck causes (GC/DVFS), sticky sessions interacting
// with the instability, bursty workloads, and DB replicas with a
// millibottleneck-aware or probing router.
#include <gtest/gtest.h>

#include <algorithm>

#include "experiment/chaos.h"
#include "experiment/experiment.h"
#include "experiment/report.h"
#include "test_util.h"

namespace ntier::experiment {
namespace {

using lb::MechanismKind;
using lb::PolicyKind;
using sim::SimTime;

TEST(StallSources, GcPausesCreateInstabilityUnderStockPolicy) {
  auto cfg = testing::quick_config(PolicyKind::kTotalRequest,
                                   MechanismKind::kBlocking, true,
                                   SimTime::seconds(12));
  cfg.tomcat_stall_source = StallSource::kGcPause;
  cfg.injector = millib::gc_pause_profile(SimTime::seconds(4),
                                          SimTime::millis(400));
  cfg.injector.jitter = false;
  auto stock = testing::run(std::move(cfg));

  auto remedy_cfg = testing::quick_config(PolicyKind::kCurrentLoad,
                                          MechanismKind::kBlocking, true,
                                          SimTime::seconds(12));
  remedy_cfg.tomcat_stall_source = StallSource::kGcPause;
  remedy_cfg.injector = millib::gc_pause_profile(SimTime::seconds(4),
                                                 SimTime::millis(400));
  remedy_cfg.injector.jitter = false;
  auto remedy = testing::run(std::move(remedy_cfg));

  // The instability is cause-agnostic: GC pauses funnel like pdflush does.
  EXPECT_GT(max_of(stock->tomcat_tier_queue()),
            4.0 * max_of(remedy->tomcat_tier_queue()));
  EXPECT_GT(stock->log().mean_response_ms(),
            2.0 * remedy->log().mean_response_ms());
  // Ground truth comes from the injectors, not pdflush.
  EXPECT_FALSE(stock->flush_intervals(0).empty());
  EXPECT_TRUE(stock->tomcat_node(0).pdflush().episodes().empty());
}

TEST(StallSources, DvfsPartialStallsAreMilder) {
  auto half = testing::quick_config(PolicyKind::kTotalRequest,
                                    MechanismKind::kBlocking, true,
                                    SimTime::seconds(12));
  half.tomcat_stall_source = StallSource::kDvfs;
  half.injector = millib::dvfs_profile(SimTime::seconds(4),
                                       SimTime::millis(400), /*severity=*/0.5);
  half.injector.jitter = false;
  auto mild = testing::run(std::move(half));

  auto full = testing::quick_config(PolicyKind::kTotalRequest,
                                    MechanismKind::kBlocking, true,
                                    SimTime::seconds(12));
  full.tomcat_stall_source = StallSource::kGcPause;
  full.injector = millib::gc_pause_profile(SimTime::seconds(4),
                                           SimTime::millis(400));
  full.injector.jitter = false;
  auto severe = testing::run(std::move(full));

  // Factor (b) of §VI: severity of the millibottleneck drives the damage.
  EXPECT_LT(mild->log().mean_response_ms(), severe->log().mean_response_ms());
  EXPECT_LE(mild->log().vlrt_fraction(), severe->log().vlrt_fraction());
}

TEST(StickySessions, ForcedRoutesReintroduceVlrtUnderRemedy) {
  // current_load avoids the stalled Tomcat — unless sticky routes force
  // requests back to it.
  auto free_cfg = testing::quick_config(PolicyKind::kCurrentLoad,
                                        MechanismKind::kNonBlocking, true,
                                        SimTime::seconds(12));
  auto sticky_cfg = free_cfg;
  sticky_cfg.sticky_sessions = true;
  sticky_cfg.balancer.sticky_force = true;
  auto free_run = testing::run(std::move(free_cfg));
  auto sticky_run = testing::run(std::move(sticky_cfg));

  // With sticky_force the stalled Tomcat's sessions have nowhere to go:
  // requests queue on it (or 503), re-inflating its committed queue.
  int t;
  SimTime s0, s1;
  (void)t;
  (void)s0;
  (void)s1;
  EXPECT_GT(max_of(sticky_run->tomcat_tier_queue()),
            2.0 * max_of(free_run->tomcat_tier_queue()));
  EXPECT_GT(sticky_run->log().mean_response_ms(),
            free_run->log().mean_response_ms());
  // Sticky routing did engage.
  std::uint64_t hits = 0;
  for (int a = 0; a < sticky_run->num_apaches(); ++a)
    hits += sticky_run->apache(a).balancer().sticky_hits();
  EXPECT_GT(hits, 1000u);
}

TEST(BurstyWorkload, BurstsAloneCauseQueueSpikes) {
  // §III-A lists bursty workloads as a millibottleneck cause: even with
  // pdflush disabled, strong bursts saturate the tier transiently.
  auto calm_cfg = testing::quick_config(PolicyKind::kTotalRequest,
                                        MechanismKind::kBlocking, false,
                                        SimTime::seconds(12));
  auto burst_cfg = calm_cfg;
  burst_cfg.bursty_workload = true;
  burst_cfg.burst_multiplier = 10.0;
  auto calm = testing::run(std::move(calm_cfg));
  auto bursty = testing::run(std::move(burst_cfg));
  EXPECT_GT(max_of(bursty->apache_tier_queue()),
            3.0 * max_of(calm->apache_tier_queue()));
  EXPECT_GT(bursty->log().percentile_ms(99.9), calm->log().percentile_ms(99.9));
}

TEST(DbReplicas, RouterSpreadsQueriesAndSurvivesDbMillibottlenecks) {
  auto cfg = testing::quick_config(PolicyKind::kCurrentLoad,
                                   MechanismKind::kNonBlocking, false,
                                   SimTime::seconds(12));
  cfg.num_mysql = 2;
  cfg.mysql_millibottlenecks = true;
  cfg.mysql.log_bytes_per_query = 1200;  // fuel for DB-side pdflush
  cfg.db_router.policy = lb::PolicyKind::kCurrentLoad;
  cfg.db_router.mechanism = lb::MechanismKind::kNonBlocking;
  cfg.db_router.pool_per_replica = 24;  // 48 split across 2 replicas
  auto e = testing::run(std::move(cfg));

  // Both replicas served queries, DB-side flushes really happened, and the
  // aware router kept end-to-end latency in the healthy band.
  EXPECT_GT(e->mysql(0).queries_served(), 1000u);
  EXPECT_GT(e->mysql(1).queries_served(), 1000u);
  EXPECT_FALSE(e->mysql_flush_intervals(0).empty());
  EXPECT_LT(e->log().mean_response_ms(), 20.0);
  std::uint64_t routed = 0;
  for (int t = 0; t < e->num_tomcats(); ++t)
    routed += e->db_router(t).queries_routed();
  EXPECT_GT(routed, 10'000u);
}

TEST(DbReplicas, QueueingRouterSuffersWhenReplicaStalls) {
  auto stock_cfg = testing::quick_config(PolicyKind::kCurrentLoad,
                                         MechanismKind::kNonBlocking, false,
                                         SimTime::seconds(12));
  stock_cfg.num_mysql = 2;
  stock_cfg.mysql_millibottlenecks = true;
  stock_cfg.mysql.log_bytes_per_query = 1200;
  stock_cfg.db_router.policy = lb::PolicyKind::kTotalRequest;
  stock_cfg.db_router.mechanism = lb::MechanismKind::kQueueing;
  stock_cfg.db_router.pool_per_replica = 24;
  auto aware_cfg = stock_cfg;
  aware_cfg.db_router.policy = lb::PolicyKind::kCurrentLoad;
  aware_cfg.db_router.mechanism = lb::MechanismKind::kNonBlocking;

  auto stock = testing::run(std::move(stock_cfg));
  auto aware = testing::run(std::move(aware_cfg));
  // The paper's web-tier lesson transfers to the DB tier: the cumulative
  // policy + condvar pool queues behind the stalled replica.
  EXPECT_GT(stock->log().mean_response_ms(),
            1.5 * aware->log().mean_response_ms());
}

TEST(DbReplicas, PrequalRouterProbesReplicasAndConservesRequests) {
  auto cfg = testing::quick_config(PolicyKind::kCurrentLoad,
                                   MechanismKind::kNonBlocking, false);
  cfg.num_mysql = 2;
  cfg.db_router.policy = lb::PolicyKind::kPrequal;
  cfg.db_router.pool_per_replica = 24;
  // Quiesce the clients at 8 s and drain for 7 s, past the longest client
  // retransmission chain, so no request is legitimately still in flight.
  Experiment e(std::move(cfg));
  e.simulation().at(SimTime::seconds(8), [&e] { e.mutable_clients().quiesce(); });
  e.run();

  // Every Tomcat's DB router built a probe pool, probed the replicas (each
  // probe a MySqlServer::probe_load job), got answers and routed on them.
  for (int t = 0; t < e.num_tomcats(); ++t) {
    SCOPED_TRACE(t);
    ASSERT_NE(e.db_router(t).route(), nullptr);
    const probe::ProbePool* pool = e.db_router(t).route()->probe_pool();
    ASSERT_NE(pool, nullptr);
    EXPECT_GT(pool->probes_sent(), 0u);
    EXPECT_GT(pool->replies(), 0u);
    EXPECT_GT(pool->uses(), 0u);
  }
  const InvariantReport inv = check_invariants(e);
  EXPECT_TRUE(inv.conservation_ok()) << inv.to_string();
  EXPECT_TRUE(inv.pools_ok()) << inv.to_string();
  EXPECT_GT(inv.completed, 0u);
}

}  // namespace
}  // namespace ntier::experiment
