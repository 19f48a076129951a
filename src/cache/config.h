#pragma once

#include <cstdint>
#include <string>
#include <string_view>

#include "sim/fields.h"

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

  /// Entries one node can hold before LRU eviction kicks in.
  std::size_t capacity_entries() const {
    const std::uint64_t cap = entry_bytes ? bytes / entry_bytes : 0;
    return cap ? static_cast<std::size_t>(cap) : 1;
  }
};

/// CacheConfig's field table (see sim/fields.h): --cache's keys, in
/// declaration order. ttl_ms may be fractional; coalesce is 0 or 1.
/// sim::spec_text writes the canonical
/// "nodes=2,bytes=67108864,entry=4096,ttl_ms=10000,inval_queue=4096,coalesce=1",
/// which sim::parse_spec<CacheConfig> reads back.
constexpr void visit(sim::FieldsOf<CacheConfig> auto& c, auto&& row) {
  row("nodes", c.nodes, sim::Int{.lo = 1});
  row("bytes", c.bytes, sim::Int{});
  row("entry", c.entry_bytes, sim::Int{});
  row("ttl_ms", c.ttl, sim::kMillis);
  row("inval_queue", c.invalidation_queue_capacity, sim::Int{});
  row("coalesce", c.coalesce, sim::Bit{});
}
constexpr std::string_view spec_name(const CacheConfig&) {
  return "cache config";
}

}  // namespace ntier::cache
