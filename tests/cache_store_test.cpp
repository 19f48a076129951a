// Unit tests of the per-node cache store: bounded LRU order, lazy TTL
// expiry, invalidation, and the capacity floor — the building block under
// the cache tier's accounting identities.
#include "cache/store.h"

#include <gtest/gtest.h>

#include "cache/config.h"
#include "sim/time.h"

namespace ntier::cache {
namespace {

using sim::SimTime;

constexpr SimTime kTtl = SimTime::seconds(10);

TEST(CacheStore, MissThenInsertThenHit) {
  CacheStore store(4);
  EXPECT_FALSE(store.lookup(1, SimTime::zero()));
  store.insert(1, SimTime::zero(), kTtl);
  EXPECT_EQ(store.size(), 1u);
  EXPECT_TRUE(store.lookup(1, SimTime::millis(1)));
  EXPECT_EQ(store.evictions(), 0u);
  EXPECT_EQ(store.expirations(), 0u);
}

TEST(CacheStore, EvictsLeastRecentlyUsedAtCapacity) {
  CacheStore store(2);
  store.insert(1, SimTime::zero(), kTtl);
  store.insert(2, SimTime::millis(1), kTtl);
  // Touch key 1 so key 2 becomes the LRU victim.
  EXPECT_TRUE(store.lookup(1, SimTime::millis(2)));
  store.insert(3, SimTime::millis(3), kTtl);
  EXPECT_EQ(store.size(), 2u);
  EXPECT_EQ(store.evictions(), 1u);
  EXPECT_TRUE(store.lookup(1, SimTime::millis(4)));
  EXPECT_FALSE(store.lookup(2, SimTime::millis(4)));  // evicted
  EXPECT_TRUE(store.lookup(3, SimTime::millis(4)));
}

TEST(CacheStore, ReinsertRefreshesInsteadOfEvicting) {
  CacheStore store(2);
  store.insert(1, SimTime::zero(), kTtl);
  store.insert(2, SimTime::zero(), kTtl);
  store.insert(1, SimTime::millis(1), kTtl);  // refresh, not a new entry
  EXPECT_EQ(store.size(), 2u);
  EXPECT_EQ(store.evictions(), 0u);
}

TEST(CacheStore, TtlExpiresLazilyAtLookup) {
  CacheStore store(4);
  store.insert(1, SimTime::zero(), SimTime::millis(5));
  EXPECT_TRUE(store.lookup(1, SimTime::millis(4)));  // still live
  EXPECT_FALSE(store.lookup(1, SimTime::millis(6)));  // dead: erased + counted
  EXPECT_EQ(store.expirations(), 1u);
  EXPECT_EQ(store.size(), 0u);
}

TEST(CacheStore, ReinsertExtendsExpiry) {
  CacheStore store(4);
  store.insert(1, SimTime::zero(), SimTime::millis(5));
  store.insert(1, SimTime::millis(4), SimTime::millis(5));
  EXPECT_TRUE(store.lookup(1, SimTime::millis(8)));  // refreshed to t=9ms
  EXPECT_EQ(store.expirations(), 0u);
}

TEST(CacheStore, HoldsProbesWithoutPromoting) {
  CacheStore store(2);
  store.insert(1, SimTime::zero(), kTtl);
  store.insert(2, SimTime::millis(1), kTtl);
  // holds() must not promote key 1, so it stays the LRU victim.
  EXPECT_TRUE(store.holds(1, SimTime::millis(2)));
  store.insert(3, SimTime::millis(3), kTtl);
  EXPECT_FALSE(store.holds(1, SimTime::millis(4)));  // evicted despite probe
  EXPECT_TRUE(store.holds(2, SimTime::millis(4)));
}

TEST(CacheStore, HoldsErasesAndCountsExpiredEntries) {
  CacheStore store(4);
  store.insert(1, SimTime::zero(), SimTime::millis(5));
  EXPECT_FALSE(store.holds(1, SimTime::millis(6)));
  EXPECT_EQ(store.expirations(), 1u);
  EXPECT_EQ(store.size(), 0u);
}

TEST(CacheStore, InvalidateDropsResidentKeysOnly) {
  CacheStore store(4);
  store.insert(1, SimTime::zero(), kTtl);
  EXPECT_TRUE(store.invalidate(1));
  EXPECT_FALSE(store.invalidate(1));  // already gone
  EXPECT_FALSE(store.invalidate(99));
  EXPECT_EQ(store.size(), 0u);
  // Invalidation is neither an eviction nor an expiration.
  EXPECT_EQ(store.evictions(), 0u);
  EXPECT_EQ(store.expirations(), 0u);
}

TEST(CacheStore, ZeroCapacityClampsToOneEntry) {
  CacheStore store(0);
  EXPECT_EQ(store.capacity(), 1u);
  store.insert(1, SimTime::zero(), kTtl);
  store.insert(2, SimTime::millis(1), kTtl);
  EXPECT_EQ(store.size(), 1u);
  EXPECT_EQ(store.evictions(), 1u);
  EXPECT_TRUE(store.lookup(2, SimTime::millis(2)));
}

// -- CacheConfig parsing ------------------------------------------------------

TEST(CacheConfig, RoundTripsThroughString) {
  CacheConfig c;
  c.nodes = 3;
  c.bytes = 1ull << 20;
  c.entry_bytes = 1024;
  c.ttl = SimTime::millis(2500);
  c.invalidation_queue_capacity = 128;
  c.coalesce = false;
  std::string err;
  const auto parsed = sim::parse_spec<CacheConfig>(sim::spec_text(c), &err);
  ASSERT_TRUE(parsed.has_value()) << err;
  EXPECT_EQ(sim::spec_text(*parsed), sim::spec_text(c));
}

TEST(CacheConfig, ParseAppliesPartialOverridesOverDefaults) {
  std::string err;
  const auto parsed = sim::parse_spec<CacheConfig>("nodes=4,ttl_ms=500", &err);
  ASSERT_TRUE(parsed.has_value()) << err;
  EXPECT_EQ(parsed->nodes, 4);
  EXPECT_EQ(parsed->ttl, SimTime::millis(500));
  EXPECT_EQ(parsed->entry_bytes, 4096u);  // untouched default
}

TEST(CacheConfig, RejectsUnknownKeysAndMalformedItems) {
  std::string err;
  EXPECT_FALSE(sim::parse_spec<CacheConfig>("bogus=1", &err).has_value());
  EXPECT_NE(err.find("unknown key"), std::string::npos) << err;
  EXPECT_FALSE(sim::parse_spec<CacheConfig>("nodes", &err).has_value());
  EXPECT_FALSE(sim::parse_spec<CacheConfig>("nodes=two", &err).has_value());
}

TEST(CacheConfig, RejectsInvalidGeometry) {
  std::string err;
  EXPECT_FALSE(sim::parse_spec<CacheConfig>("nodes=0", &err).has_value());
  EXPECT_FALSE(sim::parse_spec<CacheConfig>("bytes=0", &err).has_value());
  EXPECT_FALSE(sim::parse_spec<CacheConfig>("entry=0", &err).has_value());
  EXPECT_FALSE(sim::parse_spec<CacheConfig>("ttl_ms=0", &err).has_value());
}

TEST(CacheConfig, RejectsOutOfRangeValuesInsteadOfNarrowing) {
  // Each of these used to parse: nodes and entry wrapped to 1, and the TTLs
  // overflowed int64 nanoseconds.
  for (const char* spec :
       {"nodes=4294967297", "nodes=-4294967295", "entry=4294967297",
        "ttl_ms=18446744073710", "ttl_ms=9223372036855", "ttl_ms=-5",
        "ttl_ms=inf", "ttl_ms=nan", "coalesce=2", "coalesce=-1"}) {
    std::string err;
    EXPECT_FALSE(sim::parse_spec<CacheConfig>(spec, &err).has_value()) << spec;
    EXPECT_EQ(err.find("ttl_ms must be > 0"), std::string::npos) << spec;
  }
  std::string err;
  sim::parse_spec<CacheConfig>("ttl_ms=9223372036855", &err);
  EXPECT_NE(err.find("ttl_ms must be a finite number of ms"), std::string::npos)
      << err;
  sim::parse_spec<CacheConfig>("entry=4294967297", &err);
  EXPECT_NE(err.find("entry must be <= 4294967295"), std::string::npos) << err;
  // ttl_ms takes fractional ms, like every --*-ms flag, and still round-trips.
  const auto half = sim::parse_spec<CacheConfig>("ttl_ms=0.5,coalesce=1", &err);
  ASSERT_TRUE(half.has_value()) << err;
  EXPECT_EQ(half->ttl, SimTime::micros(500));
  EXPECT_TRUE(half->coalesce);
  const auto again = sim::parse_spec<CacheConfig>(sim::spec_text(*half), &err);
  ASSERT_TRUE(again.has_value()) << err;
  EXPECT_EQ(again->ttl, SimTime::micros(500));
}

TEST(CacheConfig, CapacityEntriesHasAFloorOfOne) {
  CacheConfig c;
  c.bytes = 1024;
  c.entry_bytes = 4096;  // bigger than the whole budget
  EXPECT_EQ(c.capacity_entries(), 1u);
  c.bytes = 64ull << 20;
  EXPECT_EQ(c.capacity_entries(), (64ull << 20) / 4096u);
}

}  // namespace
}  // namespace ntier::cache
