// Request handles and their pool: shared lifetime, slot reuse, and the
// stragglers that keep a request alive after its client has settled it (a
// laggard quorum reply, an abandoned backend attempt).
#include "proto/request.h"

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "kv/replica.h"
#include "kv/tier.h"
#include "os/node.h"
#include "server/apache_server.h"
#include "sim/simulation.h"

namespace ntier {
namespace {

using proto::RequestPool;
using proto::RequestRef;
using sim::SimTime;

os::NodeConfig plain_node() {
  os::NodeConfig nc;
  nc.cores = 2;
  nc.pdflush.enabled = false;
  return nc;
}

TEST(RequestPool, HandleIsOnePointerAndStartsDefault) {
  EXPECT_EQ(sizeof(RequestRef), sizeof(void*));
  RequestPool pool;
  const RequestRef r = pool.make();
  EXPECT_EQ(r->id, 0u);
  EXPECT_EQ(r->tomcat_id, -1);
  EXPECT_EQ(pool.live(), 1u);
  EXPECT_FALSE(RequestRef());
}

TEST(RequestPool, CopiesShareOneRequestUntilTheLastIsDropped) {
  RequestPool pool;
  RequestRef a = pool.make();
  RequestRef b = a;
  b->key = 99;
  EXPECT_EQ(a->key, 99u);
  EXPECT_EQ(a.get(), b.get());
  a.reset();
  EXPECT_EQ(pool.live(), 1u);
  RequestRef c = std::move(b);
  EXPECT_FALSE(b);
  EXPECT_EQ(c->key, 99u);
  EXPECT_EQ(pool.live(), 1u);
  c.reset();
  EXPECT_EQ(pool.live(), 0u);
}

TEST(RequestPool, FreedSlotIsReusedAndComesBackClean) {
  RequestPool pool;
  RequestRef first = pool.make();
  first->id = 7;
  first->shed = proto::ShedReason::kSojourn;
  const proto::Request* slot = first.get();
  const std::size_t capacity = pool.capacity();
  first.reset();
  const RequestRef again = pool.make();
  EXPECT_EQ(again.get(), slot);
  EXPECT_EQ(again->id, 0u);
  EXPECT_EQ(again->shed, proto::ShedReason::kNone);
  EXPECT_EQ(pool.capacity(), capacity);
  // Growing past one chunk keeps earlier requests where they are.
  std::vector<RequestRef> many;
  for (std::size_t i = 0; i < 3 * capacity; ++i) many.push_back(pool.make());
  EXPECT_EQ(again.get(), slot);
  EXPECT_EQ(pool.live(), 3 * capacity + 1);
}

TEST(RequestPool, HandlesMayOutliveThePool) {
  // A run torn down with requests still captured by pending events: the
  // storage stays valid until the last handle goes (ASan/LSan check both).
  RequestRef survivor;
  {
    RequestPool pool;
    survivor = pool.make();
    survivor->id = 5;
  }
  EXPECT_EQ(survivor->id, 5u);
  survivor.reset();
}

TEST(RequestLifetime, StragglerQuorumReplyKeepsTheRequest) {
  sim::Simulation s;
  std::vector<std::unique_ptr<os::Node>> nodes;
  std::vector<std::unique_ptr<kv::KvReplica>> reps;
  std::vector<kv::KvReplica*> ptrs;
  kv::KvConfig cfg;
  cfg.replicas = 5;
  for (int i = 0; i < cfg.replicas; ++i) {
    nodes.push_back(std::make_unique<os::Node>(s, plain_node()));
    reps.push_back(std::make_unique<kv::KvReplica>(s, *nodes.back(), i));
    ptrs.push_back(reps.back().get());
  }
  kv::KvTier tier(s, ptrs, cfg, SimTime::micros(100));
  RequestPool pool;
  const std::uint64_t key = 42;
  // One preference-list member runs 10x slower: R=2 completes without it.
  tier.replica(tier.shard_members(tier.shard_of(key))[2]).set_slow(0.9);

  bool done = false;
  {
    RequestRef req = pool.make();
    req->key = key;
    tier.read(req, SimTime::millis(1), [&](bool ok) { done = ok; });
  }  // the caller's handle is gone; the op holds the request
  std::size_t live_after_quorum = 0;
  std::size_t held_after_quorum = 0;
  s.at(SimTime::millis(5), [&] {
    live_after_quorum = pool.live();
    held_after_quorum = tier.ops_held();
  });
  s.run();
  EXPECT_TRUE(done);
  EXPECT_EQ(tier.ops_in_flight(), 0u);
  // At 5 ms the quorum had completed but the slow reply (10 ms) had not
  // landed: the op and its request were still held for it.
  EXPECT_EQ(held_after_quorum, 1u);
  EXPECT_EQ(live_after_quorum, 1u);
  EXPECT_EQ(tier.ops_held(), 0u);
  EXPECT_EQ(pool.live(), 0u);
}

TEST(RequestLifetime, AbandonedTomcatAttemptKeepsTheRequest) {
  sim::Simulation s;
  os::Node mysql_node(s, plain_node()), tomcat_node(s, plain_node()),
      apache_node(s, plain_node());
  server::MySqlServer db(s, mysql_node);
  server::DbRouter router(s, std::vector<server::MySqlServer*>{&db});
  server::TomcatServer tomcat(s, tomcat_node, 0, router);
  server::ApacheConfig acfg;
  acfg.retry.enabled = true;
  acfg.retry.max_attempts = 1;  // abandon, then fail without a retry
  acfg.retry.attempt_timeout = SimTime::millis(5);
  server::ApacheServer apache(
      s, apache_node, 0, {&tomcat}, lb::make_policy(lb::PolicyKind::kTotalRequest),
      lb::make_acquirer(lb::MechanismKind::kNonBlocking), {}, acfg);
  RequestPool pool;

  bool responded = false;
  bool ok = true;
  {
    RequestRef req = pool.make();
    req->apache_demand = SimTime::micros(100);
    req->tomcat_demand = SimTime::millis(50);
    ASSERT_TRUE(apache.try_submit(req, [&](const RequestRef&, bool o) {
      responded = true;
      ok = o;
    }));
  }
  bool settled_at_20ms = false;
  std::size_t live_at_20ms = 0;
  s.at(SimTime::millis(20), [&] {
    settled_at_20ms = responded;
    live_at_20ms = pool.live();
  });
  s.run();
  EXPECT_EQ(apache.attempts_abandoned(), 1u);
  EXPECT_FALSE(ok);
  // The client had its (failed) answer at 20 ms while the Tomcat was still
  // serving the abandoned attempt, which kept the request alive.
  EXPECT_TRUE(settled_at_20ms);
  EXPECT_EQ(live_at_20ms, 1u);
  EXPECT_EQ(tomcat.served(), 1u);
  EXPECT_EQ(pool.live(), 0u);
}

}  // namespace
}  // namespace ntier
