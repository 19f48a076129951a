#include "kv/tier.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <vector>

#include "kv/config.h"
#include "proto/request.h"
#include "sim/simulation.h"

namespace ntier::kv {
namespace {

using sim::SimTime;
using sim::Simulation;

// -- KvConfig parsing ---------------------------------------------------------

TEST(KvConfig, RoundTripsThroughString) {
  KvConfig c;
  c.replicas = 5;
  c.shards = 32;
  c.vnodes = 4;
  c.n = 3;
  c.r = 2;
  c.w = 2;
  std::string err;
  const auto parsed = sim::parse_spec<KvConfig>(sim::spec_text(c), &err);
  ASSERT_TRUE(parsed.has_value()) << err;
  EXPECT_EQ(sim::spec_text(*parsed), sim::spec_text(c));
}

TEST(KvConfig, ParseAppliesPartialOverridesOverDefaults) {
  std::string err;
  const auto parsed = sim::parse_spec<KvConfig>("replicas=6,hints=128", &err);
  ASSERT_TRUE(parsed.has_value()) << err;
  EXPECT_EQ(parsed->replicas, 6);
  EXPECT_EQ(parsed->hint_capacity, 128u);
  EXPECT_EQ(parsed->n, 3);  // untouched default
}

TEST(KvConfig, RejectsNonIntersectingQuorum) {
  std::string err;
  EXPECT_FALSE(sim::parse_spec<KvConfig>("n=3,r=1,w=1", &err).has_value());
  EXPECT_NE(err.find("r+w must exceed n"), std::string::npos) << err;
}

TEST(KvConfig, RejectsNExceedingReplicas) {
  std::string err;
  EXPECT_FALSE(sim::parse_spec<KvConfig>("replicas=2,n=3,r=2,w=2", &err));
  EXPECT_NE(err.find("exceeds replicas"), std::string::npos) << err;
}

TEST(KvConfig, RejectsUnknownKeysAndMalformedItems) {
  std::string err;
  EXPECT_FALSE(sim::parse_spec<KvConfig>("bogus=1", &err));
  EXPECT_NE(err.find("unknown key 'bogus'"), std::string::npos) << err;
  EXPECT_FALSE(sim::parse_spec<KvConfig>("replicas", &err));
  EXPECT_NE(err.find("expected key=value"), std::string::npos) << err;
  EXPECT_FALSE(sim::parse_spec<KvConfig>("r=two", &err));
  EXPECT_NE(err.find("bad integer"), std::string::npos) << err;
}

// -- KvTier quorum behaviour --------------------------------------------------

os::NodeConfig plain_node() {
  os::NodeConfig nc;
  nc.cores = 2;
  nc.pdflush.enabled = false;
  return nc;
}

/// A bare KV tier on plain nodes — the unit under test without the n-tier
/// stack above it.
struct Harness {
  Simulation s;
  std::vector<std::unique_ptr<os::Node>> nodes;
  std::vector<std::unique_ptr<KvReplica>> reps;
  std::unique_ptr<KvTier> tier;

  explicit Harness(KvConfig cfg = make_config()) {
    for (int i = 0; i < cfg.replicas; ++i) {
      nodes.push_back(std::make_unique<os::Node>(s, plain_node()));
      reps.push_back(std::make_unique<KvReplica>(s, *nodes.back(), i,
                                                 cfg.hint_capacity));
    }
    std::vector<KvReplica*> ptrs;
    for (auto& r : reps) ptrs.push_back(r.get());
    tier = std::make_unique<KvTier>(s, std::move(ptrs), cfg,
                                    SimTime::micros(100));
  }

  static KvConfig make_config() {
    KvConfig cfg;
    cfg.replicas = 5;
    cfg.n = 3;
    cfg.r = 2;
    cfg.w = 2;
    return cfg;
  }

  proto::RequestRef request(std::uint64_t key) {
    auto req = requests.make();
    req->key = key;
    return req;
  }

  proto::RequestPool requests;
};

TEST(KvTier, QuorumWriteReachesEveryPreferenceMember) {
  Harness h;
  const std::uint64_t key = 42;
  const int shard = h.tier->shard_of(key);
  bool ok = false;
  h.tier->write(h.request(key), SimTime::micros(500), [&](bool v) { ok = v; });
  h.s.run();
  EXPECT_TRUE(ok);
  const auto& ks = h.tier->stats();
  EXPECT_EQ(ks.writes_issued, 1u);
  EXPECT_EQ(ks.quorum_writes, 1u);
  EXPECT_EQ(h.tier->ops_in_flight(), 0u);
  // The quorum completes at W=2, but all N=3 members eventually apply.
  for (int m : h.tier->shard_members(shard))
    EXPECT_GT(h.tier->replica(m).version_of(key), 0u) << "replica " << m;
}

TEST(KvTier, QuorumReadSeesTheCompletedWrite) {
  Harness h;
  bool write_ok = false, read_ok = false;
  h.tier->write(h.request(7), SimTime::micros(500),
                [&](bool v) { write_ok = v; });
  h.s.after(SimTime::millis(10), [&] {
    h.tier->read(h.request(7), SimTime::micros(300),
                 [&](bool v) { read_ok = v; });
  });
  h.s.run();
  EXPECT_TRUE(write_ok);
  EXPECT_TRUE(read_ok);
  EXPECT_EQ(h.tier->stats().quorum_reads, 1u);
  EXPECT_EQ(h.tier->stats().quorum_failed_reads, 0u);
}

TEST(KvTier, CrashedMemberGetsAHintAndReplayOnRecovery) {
  Harness h;
  const std::uint64_t key = 42;
  const int shard = h.tier->shard_of(key);
  const int victim = h.tier->shard_members(shard)[0];

  h.tier->on_replica_crashed(victim);
  bool ok = false;
  h.tier->write(h.request(key), SimTime::micros(500), [&](bool v) { ok = v; });
  h.s.after(SimTime::millis(50),
            [&] { h.tier->on_replica_recovered(victim); });
  h.s.run();

  EXPECT_TRUE(ok);  // W=2 of the two live members still met
  const auto& ks = h.tier->stats();
  EXPECT_EQ(ks.quorum_failed_writes, 0u);
  EXPECT_EQ(ks.write_replicas_missed, 1u);
  EXPECT_EQ(ks.hints_created, 1u);
  EXPECT_EQ(ks.hints_replayed, 1u);
  EXPECT_EQ(ks.hints_pending(), 0u);
  EXPECT_EQ(ks.handoff_dropped, 0u);
  EXPECT_EQ(ks.crashed_dispatches, 0u);
  // The replayed hint brought the recovered replica up to date.
  EXPECT_GT(h.tier->replica(victim).version_of(key), 0u);
  EXPECT_EQ(h.tier->hints_held(), 0u);
  // Degraded time was accounted for the crash window.
  EXPECT_GT(h.tier->shard_degraded_ms(shard), 0.0);
}

TEST(KvTier, QuorumFailsWhenTooFewMembersAlive) {
  Harness h;
  const std::uint64_t key = 42;
  const auto members = h.tier->shard_members(h.tier->shard_of(key));
  h.tier->on_replica_crashed(members[0]);
  h.tier->on_replica_crashed(members[1]);

  bool read_ok = true, write_ok = true;
  h.tier->read(h.request(key), SimTime::micros(300),
               [&](bool v) { read_ok = v; });
  h.tier->write(h.request(key), SimTime::micros(500),
                [&](bool v) { write_ok = v; });
  h.s.run();

  EXPECT_FALSE(read_ok);
  EXPECT_FALSE(write_ok);
  EXPECT_EQ(h.tier->stats().quorum_failed_reads, 1u);
  EXPECT_EQ(h.tier->stats().quorum_failed_writes, 1u);
  EXPECT_EQ(h.tier->ops_in_flight(), 0u);
}

TEST(KvTier, HandoffDropsAreCountedWhenHoldersAreFull) {
  KvConfig cfg = Harness::make_config();
  cfg.hint_capacity = 0;  // every stash attempt overflows
  Harness h(cfg);
  const std::uint64_t key = 42;
  const int victim = h.tier->shard_members(h.tier->shard_of(key))[0];
  h.tier->on_replica_crashed(victim);
  h.tier->write(h.request(key), SimTime::micros(500), nullptr);
  h.s.run();
  const auto& ks = h.tier->stats();
  EXPECT_EQ(ks.write_replicas_missed, 1u);
  EXPECT_EQ(ks.hints_created, 0u);
  EXPECT_EQ(ks.handoff_dropped, 1u);
  EXPECT_EQ(ks.hints_pending(), 0u);  // the drop resolved the missed write
}

TEST(KvTier, ReadRepairConvergesAStaleReplica) {
  KvConfig cfg = Harness::make_config();
  cfg.hint_capacity = 0;  // lose the hint so the stale replica stays stale
  Harness h(cfg);
  const std::uint64_t key = 42;
  const int shard = h.tier->shard_of(key);
  const int stale = h.tier->shard_members(shard)[0];

  h.tier->write(h.request(key), SimTime::micros(500), nullptr);
  h.s.after(SimTime::millis(10), [&] { h.tier->on_replica_crashed(stale); });
  h.s.after(SimTime::millis(20),
            [&] { h.tier->write(h.request(key), SimTime::micros(500), nullptr); });
  h.s.after(SimTime::millis(30), [&] { h.tier->on_replica_recovered(stale); });
  // Read until the stale member lands in the first R repliers; one read is
  // enough here because dispatch order follows the preference list.
  h.s.after(SimTime::millis(40),
            [&] { h.tier->read(h.request(key), SimTime::micros(300), nullptr); });
  h.s.run();

  EXPECT_GE(h.tier->stats().read_repairs, 1u);
  std::uint64_t newest = 0;
  for (int m : h.tier->shard_members(shard))
    newest = std::max(newest, h.tier->replica(m).version_of(key));
  EXPECT_EQ(h.tier->replica(stale).version_of(key), newest);
}

TEST(KvTier, MigrationShedsHandoverWritesAndSwapsMembership) {
  Harness h;
  const std::uint64_t key = 42;
  const int shard = h.tier->shard_of(key);
  const auto before = h.tier->shard_members(shard);

  h.tier->begin_migration(shard, SimTime::millis(200), 1.0);
  // Outside the handover window: accepted.
  bool early_ok = false;
  h.s.after(SimTime::millis(20), [&] {
    h.tier->write(h.request(key), SimTime::micros(500),
                  [&](bool v) { early_ok = v; });
  });
  // Inside the final handover window (last 50 ms by default): shed.
  bool late_ok = true;
  h.s.after(SimTime::millis(180), [&] {
    h.tier->write(h.request(key), SimTime::micros(500),
                  [&](bool v) { late_ok = v; });
  });
  h.s.run();

  EXPECT_TRUE(early_ok);
  EXPECT_FALSE(late_ok);
  const auto& ks = h.tier->stats();
  EXPECT_EQ(ks.migration_shed, 1u);
  EXPECT_EQ(ks.migrations_started, 1u);
  EXPECT_EQ(ks.migrations_completed, 1u);
  EXPECT_GT(ks.migration_chunks, 0u);
  // Accounting identity: issued = met + failed + shed.
  EXPECT_EQ(ks.writes_issued,
            ks.quorum_writes + ks.quorum_failed_writes + ks.migration_shed);
  // The membership table swapped the source out for the ring successor.
  const auto after = h.tier->shard_members(shard);
  EXPECT_NE(before, after);
  EXPECT_EQ(after.size(), before.size());
}

TEST(KvTier, CompleteMigrationIsIdempotent) {
  Harness h;
  const int shard = h.tier->shard_of(42);
  h.tier->begin_migration(shard, SimTime::millis(100), 1.0);
  h.s.run();
  const auto members = h.tier->shard_members(shard);
  h.tier->complete_migration(shard);  // chaos-clear backstop: second call
  EXPECT_EQ(h.tier->shard_members(shard), members);
  EXPECT_EQ(h.tier->stats().migrations_completed, 1u);
}

}  // namespace
}  // namespace ntier::kv
