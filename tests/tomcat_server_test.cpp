#include "server/tomcat_server.h"

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

proto::RequestRef make_req(double tomcat_ms, int db_queries = 0,
                           double mysql_ms = 0.5, std::uint32_t log_bytes = 1000) {
  static proto::RequestPool pool;  // the test process is single-threaded
  auto r = pool.make();
  r->tomcat_demand = SimTime::from_millis(tomcat_ms);
  r->db_queries = static_cast<std::uint8_t>(db_queries);
  r->mysql_demand = SimTime::from_millis(mysql_ms);
  r->log_bytes = log_bytes;
  return r;
}

struct Rig {
  explicit Rig(DbRouterConfig dc = {}) : router(make_router(dc)) {}

  DbRouter make_router(DbRouterConfig dc) { return DbRouter(s, {&db}, dc); }

  Simulation s;
  os::Node tomcat_node{s, plain_node()};
  os::Node mysql_node{s, plain_node()};
  MySqlServer db{s, mysql_node};
  DbRouter router;
};

TEST(TomcatServer, ProcessesCpuOnlyRequest) {
  Rig rig;
  TomcatServer tc(rig.s, rig.tomcat_node, 0, rig.router);
  SimTime done;
  ASSERT_TRUE(tc.submit(make_req(2.0), [&](const proto::RequestRef&) {
    done = rig.s.now();
  }));
  rig.s.run();
  EXPECT_EQ(done, SimTime::millis(2));
  EXPECT_EQ(tc.served(), 1u);
  EXPECT_EQ(tc.resident(), 0);
}

TEST(TomcatServer, DbRoundTripsAddLatencyAndDemand) {
  Rig rig;
  TomcatServer tc(rig.s, rig.tomcat_node, 0, rig.router);
  SimTime done;
  ASSERT_TRUE(tc.submit(make_req(1.0, 2, 0.5), [&](const proto::RequestRef&) {
    done = rig.s.now();
  }));
  rig.s.run();
  // 1ms CPU + 2 × (0.1 out + 0.5 query + 0.1 back) = 2.4 ms.
  EXPECT_NEAR(done.to_millis(), 2.4, 1e-6);
  EXPECT_EQ(rig.db.queries_served(), 2u);
  EXPECT_EQ(rig.router.queries_routed(), 2u);
}

TEST(TomcatServer, WritesLogBytesOnCompletion) {
  Rig rig;
  TomcatServer tc(rig.s, rig.tomcat_node, 0, rig.router);
  tc.submit(make_req(1.0, 0, 0, 1234), [](const proto::RequestRef&) {});
  EXPECT_EQ(rig.tomcat_node.page_cache().dirty_bytes(), 0u);  // not yet
  rig.s.run();
  EXPECT_EQ(rig.tomcat_node.page_cache().dirty_bytes(), 1234u);
}

TEST(TomcatServer, ThreadCapQueuesInConnector) {
  Rig rig;
  TomcatConfig cfg;
  cfg.max_threads = 2;
  TomcatServer tc(rig.s, rig.tomcat_node, 0, rig.router, cfg);
  int completed = 0;
  for (int i = 0; i < 5; ++i)
    tc.submit(make_req(1.0), [&](const proto::RequestRef&) { ++completed; });
  EXPECT_EQ(tc.threads_busy(), 2);
  EXPECT_EQ(tc.resident(), 5);
  rig.s.run();
  EXPECT_EQ(completed, 5);
}

TEST(TomcatServer, ConnectorBacklogOverflowRejects) {
  Rig rig;
  TomcatConfig cfg;
  cfg.max_threads = 1;
  TomcatServer tc(rig.s, rig.tomcat_node, 0, rig.router, cfg);
  const int capacity = 1 + static_cast<int>(kConnectorBacklog);
  int ok = 0;
  for (int i = 0; i < capacity + 2; ++i)
    if (tc.submit(make_req(10.0), [](const proto::RequestRef&) {})) ++ok;
  EXPECT_EQ(ok, capacity);  // 1 in service + a full connector backlog
  EXPECT_EQ(tc.connector_drops(), 2u);
}

TEST(TomcatServer, StalledCpuFreezesService) {
  Rig rig;
  TomcatServer tc(rig.s, rig.tomcat_node, 0, rig.router);
  SimTime done;
  rig.tomcat_node.cpu().set_capacity_factor(0.0);
  tc.submit(make_req(1.0), [&](const proto::RequestRef&) { done = rig.s.now(); });
  rig.s.after(SimTime::millis(200), [&] {
    rig.tomcat_node.cpu().set_capacity_factor(1.0);
  });
  rig.s.run();
  EXPECT_EQ(done, SimTime::millis(201));
}

TEST(TomcatServer, DbPoolLimitsConcurrentQueries) {
  DbRouterConfig dc;
  dc.pool_per_replica = 1;
  Rig rig(dc);
  TomcatServer tc(rig.s, rig.tomcat_node, 0, rig.router);
  std::vector<SimTime> done;
  for (int i = 0; i < 2; ++i)
    tc.submit(make_req(0.0, 1, 10.0),
              [&](const proto::RequestRef&) { done.push_back(rig.s.now()); });
  rig.s.run();
  ASSERT_EQ(done.size(), 2u);
  // Serialised by the single DB connection, each query 10 ms plus a 100 µs
  // hop each way: 10.2 ms then 20.4 ms.
  EXPECT_EQ(done[0], SimTime::micros(10200));
  EXPECT_EQ(done[1], SimTime::micros(20400));
}

}  // namespace
}  // namespace ntier::server
