#include "server/db_router.h"

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

proto::RequestRef make_req(std::uint64_t id = 1) {
  static proto::RequestPool pool;  // the test process is single-threaded
  auto r = pool.make();
  r->id = id;
  return r;
}

struct Rig {
  explicit Rig(int replicas, DbRouterConfig dc = {}) {
    for (int i = 0; i < replicas; ++i) {
      nodes.push_back(std::make_unique<os::Node>(s, plain_node()));
      dbs.push_back(std::make_unique<MySqlServer>(s, *nodes.back()));
    }
    std::vector<MySqlServer*> ptrs;
    for (auto& d : dbs) ptrs.push_back(d.get());
    router = std::make_unique<DbRouter>(s, ptrs, dc);
  }

  Simulation s;
  std::vector<std::unique_ptr<os::Node>> nodes;
  std::vector<std::unique_ptr<MySqlServer>> dbs;
  std::unique_ptr<DbRouter> router;
};

TEST(DbRouter, RejectsEmptyReplicaSet) {
  Simulation s;
  EXPECT_THROW(DbRouter(s, {}, {}), std::invalid_argument);
}

TEST(DbRouter, SingleReplicaRoundTrip) {
  Rig rig(1);
  SimTime done;
  rig.router->query(make_req(), SimTime::millis(3), /*is_write=*/false,
                    [&] { done = rig.s.now(); });
  rig.s.run();
  // 3 ms of query plus a 100 µs link hop each way.
  EXPECT_EQ(done, SimTime::micros(3200));
  EXPECT_EQ(rig.router->queries_routed(), 1u);
  EXPECT_EQ(rig.dbs[0]->queries_served(), 1u);
}

TEST(DbRouter, SpreadsAcrossReplicas) {
  Rig rig(2);
  for (int i = 0; i < 100; ++i) {
    rig.s.after(SimTime::millis(i), [&, i] {
      rig.router->query(make_req(static_cast<std::uint64_t>(i)),
                        SimTime::millis(2), /*is_write=*/false, [] {});
    });
  }
  rig.s.run();
  EXPECT_GT(rig.dbs[0]->queries_served(), 30u);
  EXPECT_GT(rig.dbs[1]->queries_served(), 30u);
  EXPECT_EQ(rig.dbs[0]->queries_served() + rig.dbs[1]->queries_served(), 100u);
}

TEST(DbRouter, QueueingPoolSerialisesWhenExhausted) {
  DbRouterConfig dc;
  dc.pool_per_replica = 1;
  Rig rig(1, dc);
  std::vector<SimTime> done;
  for (int i = 0; i < 3; ++i)
    rig.router->query(make_req(), SimTime::millis(10), /*is_write=*/false,
                      [&] { done.push_back(rig.s.now()); });
  // Queries beyond the pool wait FIFO inside the pool, not in the balancer.
  EXPECT_EQ(rig.router->route()->balancer().pool(0).waiting(), 2u);
  rig.s.run();
  ASSERT_EQ(done.size(), 3u);
  // Each query holds the one connection for 10 ms plus a hop each way.
  EXPECT_EQ(done[2], SimTime::micros(30600));
  EXPECT_EQ(rig.router->errors(), 0u);
}

TEST(DbRouter, QueueingPoolCommitsToStalledReplica) {
  // The stock DB path has the same defect the paper studies at the web
  // tier: with a condvar pool + cumulative policy, queries keep piling onto
  // a stalled replica.
  DbRouterConfig dc;
  dc.policy = lb::PolicyKind::kTotalRequest;
  dc.mechanism = lb::MechanismKind::kQueueing;
  dc.pool_per_replica = 4;
  Rig rig(2, dc);
  rig.nodes[0]->cpu().set_capacity_factor(0.0);  // replica 1 stalls

  int completed = 0;
  for (int i = 0; i < 40; ++i) {
    rig.s.after(SimTime::millis(i), [&] {
      rig.router->query(make_req(), SimTime::millis(1), /*is_write=*/false,
                        [&] { ++completed; });
    });
  }
  rig.s.run_until(SimTime::millis(200));
  // total_request keeps ranking the stalled replica lowest (its counter is
  // frozen), so a large share of queries is stuck on it.
  EXPECT_GT(rig.router->route()->balancer().record(0).committed, 10);
  EXPECT_LT(completed, 35);
}

TEST(DbRouter, CurrentLoadNonBlockingAvoidsStalledReplica) {
  // Both remedies applied at the DB tier (paper §VIII: "other load
  // balancers in N-tier systems can take advantage of our remedies").
  DbRouterConfig dc;
  dc.policy = lb::PolicyKind::kCurrentLoad;
  dc.mechanism = lb::MechanismKind::kNonBlocking;
  dc.pool_per_replica = 4;
  Rig rig(2, dc);
  rig.nodes[0]->cpu().set_capacity_factor(0.0);

  int completed = 0;
  for (int i = 0; i < 40; ++i) {
    rig.s.after(SimTime::millis(i), [&] {
      rig.router->query(make_req(), SimTime::millis(1), /*is_write=*/false,
                        [&] { ++completed; });
    });
  }
  rig.s.run_until(SimTime::millis(200));
  // At most the pool capacity is pinned on the stalled replica; the rest
  // flowed to the healthy one.
  EXPECT_LE(rig.router->route()->balancer().record(0).committed, 4);
  EXPECT_GE(completed, 35);
}

TEST(DbRouter, AllReplicasSidelinedCountsErrors) {
  DbRouterConfig dc;
  dc.policy = lb::PolicyKind::kCurrentLoad;
  dc.mechanism = lb::MechanismKind::kNonBlocking;
  dc.pool_per_replica = 1;
  Rig rig(1, dc);
  rig.nodes[0]->cpu().set_capacity_factor(0.0);
  int completions = 0;
  rig.router->query(make_req(), SimTime::millis(1), /*is_write=*/false,
                    [&] { ++completions; });
  rig.router->query(make_req(), SimTime::millis(1), /*is_write=*/false,
                    [&] { ++completions; });
  // Second query: pool exhausted, no fallback -> SQL error, done fired.
  EXPECT_EQ(rig.router->errors(), 1u);
  EXPECT_EQ(completions, 1);  // the errored query completed (with an error)
}

}  // namespace
}  // namespace ntier::server
