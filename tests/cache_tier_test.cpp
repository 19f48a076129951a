// Unit tests of the look-aside cache tier over a bare KV tier: hit/miss
// accounting, single-flight coalescing, invalidation broadcast with the
// bounded queue's counted drops, the TTL backstop, invalidation storms, and
// the accounting identities the chaos matrix enforces:
//   lookups == hits + misses
//   misses  == fills_started + coalesced_fills
//   invalidations_sent == delivered + dropped   (pending 0 after drain)
#include "cache/tier.h"

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "cache/config.h"
#include "kv/config.h"
#include "kv/tier.h"
#include "proto/request.h"
#include "sim/simulation.h"

namespace ntier::cache {
namespace {

using sim::SimTime;
using sim::Simulation;

os::NodeConfig plain_node() {
  os::NodeConfig nc;
  nc.cores = 2;
  nc.pdflush.enabled = false;
  return nc;
}

/// A cache tier over a bare 5-replica KV tier (N=3, R=W=2) — the unit under
/// test without the n-tier stack above it.
struct Harness {
  Simulation s;
  std::vector<std::unique_ptr<os::Node>> kv_nodes;
  std::vector<std::unique_ptr<kv::KvReplica>> reps;
  std::unique_ptr<kv::KvTier> kv;
  std::vector<std::unique_ptr<os::Node>> cache_nodes;
  std::unique_ptr<CacheTier> tier;

  explicit Harness(CacheConfig cc = make_cache_config()) {
    kv::KvConfig cfg;
    cfg.replicas = 5;
    cfg.n = 3;
    cfg.r = 2;
    cfg.w = 2;
    for (int i = 0; i < cfg.replicas; ++i) {
      kv_nodes.push_back(std::make_unique<os::Node>(s, plain_node()));
      reps.push_back(std::make_unique<kv::KvReplica>(s, *kv_nodes.back(), i,
                                                     cfg.hint_capacity));
    }
    std::vector<kv::KvReplica*> ptrs;
    for (auto& r : reps) ptrs.push_back(r.get());
    kv = std::make_unique<kv::KvTier>(s, std::move(ptrs), cfg,
                                      SimTime::micros(100));
    for (int i = 0; i < cc.nodes; ++i)
      cache_nodes.push_back(std::make_unique<os::Node>(s, plain_node()));
    std::vector<os::Node*> cptrs;
    for (auto& n : cache_nodes) cptrs.push_back(n.get());
    tier = std::make_unique<CacheTier>(s, std::move(cptrs), kv.get(), cc);
  }

  static CacheConfig make_cache_config() {
    CacheConfig cc;
    cc.nodes = 2;
    return cc;
  }

  proto::RequestRef request(std::uint64_t key) {
    auto req = requests.make();
    req->key = key;
    return req;
  }

  proto::RequestPool requests;
};

/// The identities every finished (drained) run must satisfy.
void expect_identities(const CacheTier& tier) {
  const CacheStats& cs = tier.stats();
  EXPECT_EQ(cs.lookups, cs.hits + cs.misses);
  EXPECT_EQ(cs.misses, cs.fills_started + cs.coalesced_fills);
  EXPECT_EQ(cs.invalidations_sent,
            cs.invalidations_delivered + cs.invalidations_dropped);
  EXPECT_EQ(tier.invalidations_pending(), 0u);
  EXPECT_EQ(tier.ops_in_flight(), 0u);
}

TEST(CacheTier, MissFillsFromBackingThenHits) {
  Harness h;
  int oks = 0;
  h.tier->read(0, h.request(7), SimTime::micros(500),
               [&](bool ok) { oks += ok; });
  h.s.after(SimTime::millis(50), [&] {
    h.tier->read(0, h.request(7), SimTime::micros(500),
                 [&](bool ok) { oks += ok; });
  });
  h.s.run();

  EXPECT_EQ(oks, 2);
  const CacheStats& cs = h.tier->stats();
  EXPECT_EQ(cs.lookups, 2u);
  EXPECT_EQ(cs.hits, 1u);
  EXPECT_EQ(cs.misses, 1u);
  EXPECT_EQ(cs.fills_started, 1u);
  EXPECT_EQ(cs.fills_completed, 1u);
  EXPECT_EQ(cs.inserts, 1u);
  EXPECT_EQ(cs.fill_failures, 0u);
  // The fill actually went through the backing quorum.
  EXPECT_EQ(h.kv->stats().quorum_reads, 1u);
  expect_identities(*h.tier);
}

TEST(CacheTier, CacheNodesHaveIndependentStores) {
  Harness h;
  int oks = 0;
  h.tier->read(0, h.request(7), SimTime::micros(500),
               [&](bool ok) { oks += ok; });
  h.s.after(SimTime::millis(50), [&] {
    // Same key at the other node: its store is cold, so this misses.
    h.tier->read(1, h.request(7), SimTime::micros(500),
                 [&](bool ok) { oks += ok; });
  });
  h.s.run();

  EXPECT_EQ(oks, 2);
  EXPECT_EQ(h.tier->stats().hits, 0u);
  EXPECT_EQ(h.tier->stats().fills_started, 2u);
  EXPECT_EQ(h.tier->store(0).size(), 1u);
  EXPECT_EQ(h.tier->store(1).size(), 1u);
  expect_identities(*h.tier);
}

TEST(CacheTier, SingleFlightCoalescesConcurrentMisses) {
  Harness h;
  int oks = 0;
  for (int i = 0; i < 3; ++i)
    h.tier->read(0, h.request(7), SimTime::micros(500),
                 [&](bool ok) { oks += ok; });
  h.s.run();

  EXPECT_EQ(oks, 3);
  const CacheStats& cs = h.tier->stats();
  EXPECT_EQ(cs.misses, 3u);
  EXPECT_EQ(cs.fills_started, 1u);  // one leader...
  EXPECT_EQ(cs.coalesced_fills, 2u);  // ...two joiners
  EXPECT_EQ(cs.fills_completed, 1u);
  // The backing store saw exactly one fetch — no stampede.
  EXPECT_EQ(h.kv->stats().reads_issued, 1u);
  expect_identities(*h.tier);
}

TEST(CacheTier, WithoutCoalescingEveryMissStampedesTheBacking) {
  CacheConfig cc = Harness::make_cache_config();
  cc.coalesce = false;
  Harness h(cc);
  int oks = 0;
  for (int i = 0; i < 3; ++i)
    h.tier->read(0, h.request(7), SimTime::micros(500),
                 [&](bool ok) { oks += ok; });
  h.s.run();

  EXPECT_EQ(oks, 3);
  const CacheStats& cs = h.tier->stats();
  EXPECT_EQ(cs.misses, 3u);
  EXPECT_EQ(cs.fills_started, 3u);
  EXPECT_EQ(cs.coalesced_fills, 0u);
  EXPECT_EQ(h.kv->stats().reads_issued, 3u);
  expect_identities(*h.tier);
}

TEST(CacheTier, QuorumCommittedWriteInvalidatesEveryHoldingNode) {
  Harness h;
  int oks = 0;
  // Warm the key on both cache nodes.
  h.tier->read(0, h.request(7), SimTime::micros(500),
               [&](bool ok) { oks += ok; });
  h.s.after(SimTime::millis(20), [&] {
    h.tier->read(1, h.request(7), SimTime::micros(500),
                 [&](bool ok) { oks += ok; });
  });
  h.s.after(SimTime::millis(40), [&] {
    h.tier->write(0, h.request(7), SimTime::micros(500),
                  [&](bool ok) { oks += ok; });
  });
  // Post-invalidation, the key is gone from both nodes: this read misses.
  h.s.after(SimTime::millis(80), [&] {
    h.tier->read(0, h.request(7), SimTime::micros(500),
                 [&](bool ok) { oks += ok; });
  });
  h.s.run();

  EXPECT_EQ(oks, 4);
  const CacheStats& cs = h.tier->stats();
  EXPECT_EQ(cs.writes_forwarded, 1u);
  EXPECT_EQ(cs.invalidations_sent, 2u);  // both nodes held the key
  EXPECT_EQ(cs.invalidations_delivered, 2u);
  EXPECT_EQ(cs.invalidations_dropped, 0u);
  EXPECT_EQ(cs.misses, 3u);  // two warming misses + one post-invalidation
  EXPECT_EQ(cs.hits, 0u);
  EXPECT_EQ(h.kv->stats().writes_issued, 1u);
  expect_identities(*h.tier);
}

TEST(CacheTier, WriteToUnheldKeySendsNoInvalidations) {
  Harness h;
  bool ok = false;
  h.tier->write(0, h.request(99), SimTime::micros(500),
                [&](bool v) { ok = v; });
  h.s.run();
  EXPECT_TRUE(ok);
  EXPECT_EQ(h.tier->stats().writes_forwarded, 1u);
  EXPECT_EQ(h.tier->stats().invalidations_sent, 0u);
  expect_identities(*h.tier);
}

TEST(CacheTier, TtlBackstopExpiresStaleEntries) {
  CacheConfig cc = Harness::make_cache_config();
  cc.ttl = SimTime::millis(20);
  Harness h(cc);
  int oks = 0;
  h.tier->read(0, h.request(7), SimTime::micros(500),
               [&](bool ok) { oks += ok; });
  // Well past the TTL: the entry is found dead, counted, and refilled.
  h.s.after(SimTime::millis(100), [&] {
    h.tier->read(0, h.request(7), SimTime::micros(500),
                 [&](bool ok) { oks += ok; });
  });
  h.s.run();

  EXPECT_EQ(oks, 2);
  const CacheStats& cs = h.tier->stats();
  EXPECT_EQ(cs.hits, 0u);
  EXPECT_EQ(cs.misses, 2u);
  EXPECT_EQ(cs.fills_started, 2u);
  EXPECT_EQ(cs.expirations, 1u);
  expect_identities(*h.tier);
}

TEST(CacheTier, LruEvictionsAreCountedThroughTierStats) {
  CacheConfig cc = Harness::make_cache_config();
  cc.bytes = 2 * cc.entry_bytes;  // two entries per node
  Harness h(cc);
  int oks = 0;
  for (std::uint64_t key = 1; key <= 3; ++key)
    h.s.after(SimTime::millis(20 * key), [&h, &oks, key] {
      h.tier->read(0, h.request(key), SimTime::micros(500),
                   [&](bool ok) { oks += ok; });
    });
  h.s.run();

  EXPECT_EQ(oks, 3);
  EXPECT_EQ(h.tier->store(0).size(), 2u);
  EXPECT_EQ(h.tier->stats().evictions, 1u);
  expect_identities(*h.tier);
}

TEST(CacheTier, FailedQuorumFetchSurfacesAsFillFailure) {
  Harness h;
  const std::uint64_t key = 7;
  const auto members = h.kv->shard_members(h.kv->shard_of(key));
  h.kv->on_replica_crashed(members[0]);
  h.kv->on_replica_crashed(members[1]);

  bool ok = true;
  h.tier->read(0, h.request(key), SimTime::micros(500),
               [&](bool v) { ok = v; });
  h.s.run();

  EXPECT_FALSE(ok);
  const CacheStats& cs = h.tier->stats();
  EXPECT_EQ(cs.fill_failures, 1u);
  EXPECT_EQ(cs.inserts, 0u);  // nothing cached on failure
  EXPECT_EQ(h.tier->store(0).size(), 0u);
  expect_identities(*h.tier);
}

TEST(CacheTier, InvalidationStormSweepsHotKeysAndDrains) {
  Harness h;
  int oks = 0;
  // Warm the hottest ranks on node 0 so the storm has keys to invalidate.
  for (std::uint64_t key = 0; key < 4; ++key)
    h.s.after(SimTime::millis(10 * (key + 1)), [&h, &oks, key] {
      h.tier->read(0, h.request(key), SimTime::micros(500),
                   [&](bool ok) { oks += ok; });
    });
  h.s.after(SimTime::millis(100), [&] {
    h.tier->begin_invalidation_storm(SimTime::millis(50), 1.0);
    EXPECT_TRUE(h.tier->storm_active());
  });
  h.s.run();

  EXPECT_EQ(oks, 4);
  EXPECT_FALSE(h.tier->storm_active());
  const CacheStats& cs = h.tier->stats();
  EXPECT_EQ(cs.storms, 1u);
  EXPECT_GE(cs.storm_ticks, 1u);
  // The first sweep invalidates all four resident hot keys.
  EXPECT_GE(cs.invalidations_sent, 4u);
  EXPECT_EQ(h.tier->store(0).size(), 0u);
  expect_identities(*h.tier);
}

TEST(CacheTier, BoundedQueueOverflowDropsAreCounted) {
  CacheConfig cc = Harness::make_cache_config();
  cc.invalidation_queue_capacity = 1;
  Harness h(cc);
  int oks = 0;
  // Warm many hot ranks on node 0, then sweep them all at one instant: the
  // first invalidation occupies the single slot, the rest are counted drops.
  for (std::uint64_t key = 0; key < 8; ++key)
    h.s.after(SimTime::millis(10 * (key + 1)), [&h, &oks, key] {
      h.tier->read(0, h.request(key), SimTime::micros(500),
                   [&](bool ok) { oks += ok; });
    });
  h.s.after(SimTime::millis(200), [&] {
    h.tier->begin_invalidation_storm(SimTime::millis(30), 1.0);
  });
  h.s.run();

  EXPECT_EQ(oks, 8);
  const CacheStats& cs = h.tier->stats();
  EXPECT_GT(cs.invalidations_dropped, 0u);
  EXPECT_GT(cs.invalidations_delivered, 0u);
  EXPECT_EQ(cs.invalidations_sent,
            cs.invalidations_delivered + cs.invalidations_dropped);
  expect_identities(*h.tier);
}

TEST(CacheTier, OverlappingStormsExtendRatherThanStack) {
  Harness h;
  h.tier->begin_invalidation_storm(SimTime::millis(40), 1.0);
  h.s.after(SimTime::millis(20), [&] {
    h.tier->begin_invalidation_storm(SimTime::millis(40), 2.0);
    EXPECT_TRUE(h.tier->storm_active());
  });
  h.s.run();
  EXPECT_FALSE(h.tier->storm_active());
  // Two storm applications, one contiguous episode's worth of ticks.
  EXPECT_EQ(h.tier->stats().storms, 2u);
  EXPECT_GE(h.tier->stats().storm_ticks, 4u);
  expect_identities(*h.tier);
}

}  // namespace
}  // namespace ntier::cache
