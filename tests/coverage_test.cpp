// Coverage batch for smaller public surfaces: sampler lifetime, pdflush
// force-flush, MySQL binlog dirtying, end-to-end sticky routing through the
// Apache front-end, and the two-choices baseline under millibottlenecks.
#include <gtest/gtest.h>

#include "experiment/experiment.h"
#include "experiment/report.h"
#include "metrics/sampler.h"
#include "os/node.h"
#include "test_util.h"

namespace ntier {
namespace {

using sim::SimTime;
using sim::Simulation;

TEST(PeriodicSampler, StopsSamplingWhenDestroyed) {
  Simulation s;
  {
    int ticks = 0;
    metrics::PeriodicSampler sampler(s, SimTime::millis(10), [&](SimTime) { ++ticks; });
    s.run_until(SimTime::millis(35));
    EXPECT_EQ(ticks, 3);
  }
  // The destructor cancelled the pending event: the queue drains.
  EXPECT_FALSE(s.pending());
}

TEST(Pdflush, FlushNowForcesAnEpisode) {
  Simulation s;
  os::NodeConfig nc;
  nc.disk_bytes_per_second = 1 << 20;
  nc.pdflush.flush_interval = SimTime::seconds(600);
  os::Node node(s, nc);
  node.page_cache().write_dirty(1 << 18);
  node.pdflush().flush_now();
  EXPECT_TRUE(node.pdflush().flushing());
  node.pdflush().flush_now();  // idempotent while flushing
  s.run_until(SimTime::seconds(1));
  EXPECT_EQ(node.pdflush().episodes().size(), 1u);
}

TEST(MySql, BinlogBytesDirtyThePageCache) {
  Simulation s;
  os::NodeConfig nc;
  nc.pdflush.enabled = false;
  os::Node node(s, nc);
  server::MySqlConfig cfg;
  cfg.log_bytes_per_query = 512;
  server::MySqlServer db(s, node, cfg);
  db.execute(SimTime::millis(1), [] {});
  db.execute(SimTime::millis(1), [] {});
  s.run();
  EXPECT_EQ(node.page_cache().dirty_bytes(), 1024u);
}

TEST(StickyEndToEnd, ClientsReturnToTheirTomcat) {
  auto cfg = experiment::testing::quick_config(
      lb::PolicyKind::kCurrentLoad, lb::MechanismKind::kNonBlocking,
      /*millibottlenecks=*/false, SimTime::seconds(6));
  cfg.sticky_sessions = true;
  auto e = experiment::testing::run(std::move(cfg));

  // After the first interaction every client carries a route, so nearly all
  // assignments are sticky hits.
  std::uint64_t hits = 0, assigned = 0;
  for (int a = 0; a < e->num_apaches(); ++a) {
    hits += e->apache(a).balancer().sticky_hits();
    for (int t = 0; t < e->num_tomcats(); ++t)
      assigned += e->apache(a).balancer().record(t).assigned;
  }
  EXPECT_GT(hits, 10'000u);
  EXPECT_GT(static_cast<double>(hits) / static_cast<double>(assigned), 0.8);
}

TEST(TwoChoices, AlsoAvoidsStalledTomcats) {
  // The power-of-two-choices baseline samples *current* state, so like
  // current_load it dodges millibottlenecks — supporting the paper's
  // general advice to use current-state policies.
  auto cfg = experiment::testing::quick_config(
      lb::PolicyKind::kTwoChoices, lb::MechanismKind::kNonBlocking, true,
      SimTime::seconds(12));
  auto e = experiment::testing::run(std::move(cfg));
  EXPECT_LT(e->log().vlrt_fraction(), 0.005);
  EXPECT_LT(e->log().mean_response_ms(), 10.0);
}

TEST(SessionsPolicy, WorksEndToEndWithStickyRouting) {
  auto cfg = experiment::testing::quick_config(
      lb::PolicyKind::kSessions, lb::MechanismKind::kNonBlocking,
      /*millibottlenecks=*/false, SimTime::seconds(6));
  cfg.sticky_sessions = true;
  auto e = experiment::testing::run(std::move(cfg));
  // New sessions are spread evenly; returning traffic follows routes.
  std::vector<std::uint64_t> served;
  for (int t = 0; t < e->num_tomcats(); ++t)
    served.push_back(e->tomcat(t).served());
  const auto [mn, mx] = std::minmax_element(served.begin(), served.end());
  EXPECT_GT(*mn, 0u);
  EXPECT_LT(static_cast<double>(*mx) / static_cast<double>(*mn), 1.5);
  EXPECT_LT(e->log().mean_response_ms(), 10.0);
}

}  // namespace
}  // namespace ntier
