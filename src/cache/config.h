#pragma once

#include <cstdint>
#include <optional>
#include <string>

#include "sim/time.h"

namespace ntier::cache {

/// Configuration of the look-aside cache tier that fronts the KV data tier:
/// `nodes` cache servers, each with `bytes` of memory holding fixed-size
/// entries of `entry_bytes`, evicted LRU and expired after `ttl`. Writes
/// committed by the KV quorum broadcast invalidations to every cache node
/// holding the key; each node drains its invalidations from a bounded FIFO
/// queue whose backlog is itself a millibottleneck surface (an overflowing
/// queue *drops* invalidations — the TTL is the backstop that bounds how
/// long a dropped invalidation can leave a stale entry behind).
struct CacheConfig {
  int nodes = 2;                       // cache servers in the tier
  std::uint64_t bytes = 64ull << 20;   // memory per node
  std::uint32_t entry_bytes = 4096;    // memory charged per cached entry
  sim::SimTime ttl = sim::SimTime::seconds(10);  // entry time-to-live

  /// Bound on each node's pending-invalidation queue; overflow is counted
  /// as invalidations_dropped (no silent loss — the TTL cleans up).
  std::size_t invalidation_queue_capacity = 4096;

  /// Single-flight fill coalescing: concurrent misses on the same key at
  /// the same node join the one in-flight fill instead of each stampeding
  /// the backing store. Toggleable so the bench can show with/without.
  bool coalesce = true;

  /// Validate the geometry; on failure fills `error` with the reason
  /// (mirrors the CLI's rejection-message contract).
  bool validate(std::string* error) const;

  /// Canonical "nodes=2,bytes=67108864,entry=4096,ttl_ms=10000,..."
  /// rendering — round-trips through cache_config_from_string.
  std::string to_string() const;

  /// Entries one node can hold before LRU eviction kicks in.
  std::size_t capacity_entries() const {
    const std::uint64_t cap = entry_bytes ? bytes / entry_bytes : 0;
    return cap ? static_cast<std::size_t>(cap) : 1;
  }
};

/// Parse "key=value,key=value" (keys: nodes, bytes, entry, ttl_ms,
/// inval_queue, coalesce) over the defaults. ttl_ms may be fractional;
/// coalesce is 0 or 1. Returns nullopt and fills `error` on unknown keys,
/// malformed or out-of-range numbers, or invalid geometry.
std::optional<CacheConfig> cache_config_from_string(const std::string& s,
                                                    std::string* error);

}  // namespace ntier::cache
