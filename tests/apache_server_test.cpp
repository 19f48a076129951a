#include "server/apache_server.h"

#include <gtest/gtest.h>

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

proto::RequestRef make_req(double apache_ms = 0.5, double tomcat_ms = 1.0) {
  static proto::RequestPool pool;  // the test process is single-threaded
  auto r = pool.make();
  r->apache_demand = SimTime::from_millis(apache_ms);
  r->tomcat_demand = SimTime::from_millis(tomcat_ms);
  r->log_bytes = 100;
  return r;
}

struct Rig {
  explicit Rig(int tomcats = 2, lb::PolicyKind policy = lb::PolicyKind::kTotalRequest,
               lb::MechanismKind mech = lb::MechanismKind::kNonBlocking,
               ApacheConfig acfg = {}, lb::BalancerConfig bcfg = {}) {
    mysql_node = std::make_unique<os::Node>(s, plain_node());
    db = std::make_unique<MySqlServer>(s, *mysql_node);
    for (int i = 0; i < tomcats; ++i) {
      tomcat_nodes.push_back(std::make_unique<os::Node>(s, plain_node()));
      db_routers.push_back(std::make_unique<DbRouter>(
          s, std::vector<MySqlServer*>{db.get()}, DbRouterConfig{}));
      tomcat_servers.push_back(std::make_unique<TomcatServer>(
          s, *tomcat_nodes.back(), i, *db_routers.back()));
    }
    apache_node = std::make_unique<os::Node>(s, plain_node());
    std::vector<TomcatServer*> ptrs;
    for (auto& t : tomcat_servers) ptrs.push_back(t.get());
    apache = std::make_unique<ApacheServer>(
        s, *apache_node, 0, ptrs, lb::make_policy(policy),
        lb::make_acquirer(mech, bcfg.blocking), bcfg, acfg);
  }

  Simulation s;
  std::unique_ptr<os::Node> mysql_node, apache_node;
  std::vector<std::unique_ptr<os::Node>> tomcat_nodes;
  std::unique_ptr<MySqlServer> db;
  std::vector<std::unique_ptr<DbRouter>> db_routers;
  std::vector<std::unique_ptr<TomcatServer>> tomcat_servers;
  std::unique_ptr<ApacheServer> apache;
};

TEST(ApacheServer, EndToEndRequest) {
  Rig rig;
  SimTime done;
  bool ok = false;
  ASSERT_TRUE(rig.apache->try_submit(
      make_req(), [&](const proto::RequestRef&, bool o) {
        done = rig.s.now();
        ok = o;
      }));
  rig.s.run();
  EXPECT_TRUE(ok);
  // 0.5ms apache + 0.1 link + 1ms tomcat + 0.1 link back = 1.7ms.
  EXPECT_NEAR(done.to_millis(), 1.7, 1e-6);
  EXPECT_EQ(rig.apache->served(), 1u);
  EXPECT_EQ(rig.apache->resident(), 0);
}

TEST(ApacheServer, StampsApacheAndTomcatIds) {
  Rig rig;
  auto req = make_req();
  rig.apache->try_submit(req, [](const proto::RequestRef&, bool) {});
  rig.s.run();
  EXPECT_EQ(req->apache_id, 0);
  EXPECT_GE(req->tomcat_id, 0);
}

TEST(ApacheServer, WorkerCapThenBacklogThenDrop) {
  ApacheConfig acfg;
  acfg.max_clients = 2;
  Rig rig(1, lb::PolicyKind::kTotalRequest, lb::MechanismKind::kNonBlocking,
          acfg);
  const int capacity = 2 + static_cast<int>(kListenBacklog);
  int accepted = 0;
  for (int i = 0; i < capacity + 5; ++i)
    if (rig.apache->try_submit(make_req(100.0),
                               [](const proto::RequestRef&, bool) {}))
      ++accepted;
  EXPECT_EQ(accepted, capacity);  // 2 workers + the backlog
  EXPECT_EQ(rig.apache->syn_drops(), 5u);
  EXPECT_EQ(rig.apache->resident(), capacity);
}

TEST(ApacheServer, BacklogDrainsAsWorkersFree) {
  ApacheConfig acfg;
  acfg.max_clients = 1;
  Rig rig(1, lb::PolicyKind::kTotalRequest, lb::MechanismKind::kNonBlocking,
          acfg);
  int completed = 0;
  for (int i = 0; i < 4; ++i)
    rig.apache->try_submit(make_req(),
                           [&](const proto::RequestRef&, bool) { ++completed; });
  rig.s.run();
  EXPECT_EQ(completed, 4);
  EXPECT_EQ(rig.apache->resident(), 0);
}

TEST(ApacheServer, BalancerErrorPropagatesNotOk) {
  lb::BalancerConfig bcfg;
  bcfg.endpoint_pool_size = 1;
  Rig rig(1, lb::PolicyKind::kTotalRequest, lb::MechanismKind::kNonBlocking,
          {}, bcfg);
  // Pin the single tomcat's only endpoint with a long request.
  rig.apache->try_submit(make_req(0.1, 1000.0),
                         [](const proto::RequestRef&, bool) {});
  bool got = true;
  rig.s.after(SimTime::millis(10), [&] {
    rig.apache->try_submit(make_req(), [&](const proto::RequestRef&, bool ok) {
      got = ok;
    });
  });
  rig.s.run_until(SimTime::millis(50));
  EXPECT_FALSE(got);
  EXPECT_EQ(rig.apache->balancer().balancer_errors(), 1u);
}

TEST(ApacheServer, WritesAccessLogOnCompletion) {
  Rig rig;
  rig.apache->try_submit(make_req(), [](const proto::RequestRef&, bool) {});
  rig.s.run();
  // kApacheLogBytes — the request's log_bytes belongs to the Tomcat tier.
  EXPECT_EQ(rig.apache->node().page_cache().dirty_bytes(), kApacheLogBytes);
}

TEST(ApacheServer, BlockedWorkersOccupySlots) {
  // With the stock blocking acquirer and a stalled backend, workers park in
  // get_endpoint and the Apache fills up even though no request progresses.
  lb::BalancerConfig bcfg;
  bcfg.endpoint_pool_size = 1;
  ApacheConfig acfg;
  acfg.max_clients = 3;
  Rig rig(1, lb::PolicyKind::kTotalRequest, lb::MechanismKind::kBlocking, acfg,
          bcfg);
  rig.tomcat_nodes[0]->cpu().set_capacity_factor(0.0);  // millibottleneck
  const int capacity = 3 + static_cast<int>(kListenBacklog);
  for (int i = 0; i < capacity; ++i)
    rig.apache->try_submit(make_req(), [](const proto::RequestRef&, bool) {});
  rig.s.run_until(SimTime::millis(50));
  EXPECT_EQ(rig.apache->workers_busy(), 3);
  EXPECT_EQ(rig.apache->resident(), capacity);
  EXPECT_FALSE(rig.apache->try_submit(make_req(),
                                      [](const proto::RequestRef&, bool) {}));
}

}  // namespace
}  // namespace ntier::server
