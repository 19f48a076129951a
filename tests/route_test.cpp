#include "server/route.h"

#include <gtest/gtest.h>

#include <optional>

#include "lb/probe_policy.h"
#include "server/db_router.h"
#include "server/mysql_server.h"
#include "server/tomcat_server.h"
#include "sim/simulation.h"

namespace ntier::server {
namespace {

using sim::SimTime;
using sim::Simulation;

os::NodeConfig plain_node() {
  os::NodeConfig nc;
  nc.cores = 4;
  nc.pdflush.enabled = false;
  return nc;
}

proto::RequestRef make_req(double tomcat_ms) {
  static proto::RequestPool pool;  // the test process is single-threaded
  auto r = pool.make();
  r->tomcat_demand = SimTime::from_millis(tomcat_ms);
  return r;
}

/// A route over `backends` running current_load with fail-fast endpoints.
Route make_route(Simulation& s, std::vector<RouteBackend*> backends,
                 probe::ProbeConfig probe = {}) {
  return Route(s, std::move(backends),
               lb::make_policy(lb::PolicyKind::kCurrentLoad),
               lb::make_acquirer(lb::MechanismKind::kNonBlocking, {}), {}, {},
               probe);
}

/// One Tomcat (over a one-replica DB router) and one MySQL replica, each on
/// its own idle node.
struct Rig {
  Simulation s;
  os::Node tomcat_node{s, plain_node()};
  os::Node mysql_node{s, plain_node()};
  MySqlServer db{s, mysql_node};
  DbRouter router{s, {&db}};
  TomcatServer tomcat{s, tomcat_node, 0, router};
};

struct Reply {
  SimTime at;
  bool ok = false;
  double rif = 0.0;
  double latency_ms = 0.0;
};

/// Probe backend 0 of `route` now; the reply lands in `out`.
void probe_now(Simulation& s, Route& route, std::optional<Reply>* out) {
  route.probe(0, [&s, out](bool ok, double rif, double latency_ms) {
    *out = Reply{s.now(), ok, rif, latency_ms};
  });
}

TEST(Route, TomcatProbeTakesTwoHopsAndTheProbeJob) {
  Rig rig;
  Route route = make_route(rig.s, {&rig.tomcat});
  // One finished request gives the latency EWMA a value; a long one keeps a
  // request in flight while the probe is answered.
  rig.tomcat.submit(make_req(2.0), [](const proto::RequestRef&) {});
  rig.s.run();
  const SimTime sent = rig.s.now();
  rig.tomcat.submit(make_req(50.0), [](const proto::RequestRef&) {});
  std::optional<Reply> reply;
  probe_now(rig.s, route, &reply);
  rig.s.run_until(sent + SimTime::millis(1));
  ASSERT_TRUE(reply.has_value());
  EXPECT_EQ(reply->at, sent + net::kLinkLatency * 2 + kProbeDemand);
  EXPECT_TRUE(reply->ok);
  EXPECT_EQ(reply->rif, 1.0);
  EXPECT_EQ(reply->rif, rig.tomcat.reported_rif());
  EXPECT_DOUBLE_EQ(reply->latency_ms, 2.0);
  EXPECT_EQ(reply->latency_ms, rig.tomcat.reported_latency_ms());
}

TEST(Route, MySqlProbeTakesTwoHopsAndTheProbeJob) {
  Rig rig;
  Route route = make_route(rig.s, {&rig.db});
  rig.db.execute(SimTime::millis(3), [] {});
  rig.s.run();
  const SimTime sent = rig.s.now();
  rig.db.execute(SimTime::millis(50), [] {});
  rig.db.execute(SimTime::millis(50), [] {});
  std::optional<Reply> reply;
  probe_now(rig.s, route, &reply);
  rig.s.run_until(sent + SimTime::millis(1));
  ASSERT_TRUE(reply.has_value());
  EXPECT_EQ(reply->at, sent + net::kLinkLatency * 2 + kProbeDemand);
  EXPECT_TRUE(reply->ok);
  EXPECT_EQ(reply->rif, 2.0);
  EXPECT_EQ(reply->rif, rig.db.reported_rif());
  EXPECT_DOUBLE_EQ(reply->latency_ms, 3.0);
  EXPECT_EQ(reply->latency_ms, rig.db.reported_latency_ms());
}

TEST(Route, CrashedTomcatRefusesWithoutAProbeJob) {
  Rig rig;
  Route route = make_route(rig.s, {&rig.tomcat});
  rig.tomcat.crash();
  std::optional<Reply> reply;
  probe_now(rig.s, route, &reply);
  rig.s.run();
  ASSERT_TRUE(reply.has_value());
  EXPECT_EQ(reply->at, net::kLinkLatency * 2);
  EXPECT_FALSE(reply->ok);
}

TEST(Route, PiggybackReadsTheFrozenValuesUnderAGrayFault) {
  Rig rig;
  probe::ProbeConfig pc;
  pc.enabled = true;
  pc.rate_hz = 0.01;  // no probe tick inside the test: only piggybacks
  pc.staleness = SimTime::seconds(10);
  Route route = make_route(rig.s, {&rig.tomcat}, pc);
  rig.tomcat.submit(make_req(2.0), [](const proto::RequestRef&) {});
  rig.s.run_until(SimTime::millis(10));
  // One request in flight at fault onset: the node keeps reporting it.
  rig.tomcat.submit(make_req(100.0), [](const proto::RequestRef&) {});
  rig.tomcat.set_gray_degraded(0.5);
  rig.tomcat.submit(make_req(100.0), [](const proto::RequestRef&) {});
  rig.tomcat.submit(make_req(100.0), [](const proto::RequestRef&) {});
  ASSERT_EQ(rig.tomcat.resident(), 3);

  const auto reply_through_route = [&] {
    const proto::RequestRef req = make_req(0.0);
    int picked = -1;
    route.balancer().assign(req, [&picked](int idx) { picked = idx; });
    EXPECT_EQ(picked, 0);
    route.on_reply(0, req);
    EXPECT_EQ(route.balancer().record(0).outstanding, 0);
    return *route.probe_pool()->freshest(0);
  };
  const probe::ProbeResult frozen = reply_through_route();
  EXPECT_EQ(frozen.rif, 1.0);
  EXPECT_DOUBLE_EQ(frozen.latency_ms, 2.0);
  EXPECT_EQ(route.probe_pool()->piggybacked(), 1u);

  // Once the fault clears, the piggyback carries the real queue again.
  rig.tomcat.clear_gray_degraded();
  EXPECT_EQ(reply_through_route().rif, 3.0);
}

TEST(Route, PrequalDbRouterProbesAndAvoidsAStalledReplica) {
  Simulation s;
  os::Node stalled_node{s, plain_node()};
  os::Node healthy_node{s, plain_node()};
  MySqlServer stalled{s, stalled_node};
  MySqlServer healthy{s, healthy_node};
  DbRouterConfig dc;
  dc.policy = lb::PolicyKind::kPrequal;
  dc.probe.enabled = true;
  dc.pool_per_replica = 8;
  DbRouter router(s, {&stalled, &healthy}, dc);
  ASSERT_NE(router.route(), nullptr);
  Route& route = *router.route();

  // A query per millisecond for 400 ms; replica 0 stalls from 100 ms on.
  static proto::RequestPool pool;
  for (int i = 0; i < 400; ++i)
    s.at(SimTime::millis(i), [&router] {
      router.query(pool.make(), SimTime::millis(1), /*is_write=*/false,
                   [] {});
    });
  s.at(SimTime::millis(100),
       [&stalled_node] { stalled_node.cpu().set_capacity_factor(0.0); });
  std::uint64_t before[2] = {0, 0};
  s.at(SimTime::millis(150), [&] {
    for (int w = 0; w < 2; ++w)
      before[w] = route.balancer().record(w).assigned;
  });
  s.run_until(SimTime::millis(400));

  const probe::ProbePool* probes = route.probe_pool();
  ASSERT_NE(probes, nullptr);
  EXPECT_GT(probes->replies(), 0u);
  EXPECT_GT(probes->timeouts(), 0u);  // the stalled replica stops answering
  EXPECT_GT(probes->piggybacked(), 0u);
  const auto& policy =
      dynamic_cast<const lb::ProbeAwarePolicy&>(route.balancer().policy());
  EXPECT_GT(policy.probe_picks(), 0u);
  // Once the stall shows, the picks go to the healthy replica.
  const std::uint64_t to_stalled =
      route.balancer().record(0).assigned - before[0];
  const std::uint64_t to_healthy =
      route.balancer().record(1).assigned - before[1];
  EXPECT_GT(to_healthy, 200u) << to_stalled;
  EXPECT_LT(to_stalled, 5u) << to_healthy;
}

}  // namespace
}  // namespace ntier::server
