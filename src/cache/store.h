#pragma once

#include <cstdint>
#include <vector>

#include "sim/flat_map.h"
#include "sim/time.h"

namespace ntier::cache {

/// One node's key set: a bounded LRU with per-entry TTLs. Entries expire
/// lazily — an expired entry is discovered (and counted) at the lookup or
/// holds() probe that finds it, which is exactly when a memcached-style
/// cache pays the expiry cost. Every operation is keyed explicitly and no
/// output ever depends on hash-table iteration order, so the store is
/// byte-deterministic by construction.
///
/// Storage is flat: entries live in a slot array linked into an intrusive
/// LRU list by slot index, and a sim::FlatMap maps keys to slots. Both
/// grow to the store's capacity and are then reused, so a warm store
/// allocates nothing per operation.
class CacheStore {
 public:
  explicit CacheStore(std::size_t capacity_entries)
      : capacity_(capacity_entries ? capacity_entries : 1) {}

  /// Look a key up at `now`: a live entry is promoted to most-recently-used
  /// and counts a hit; a dead (expired) entry is erased and counts both an
  /// expiration and a miss.
  bool lookup(std::uint64_t key, sim::SimTime now);

  /// True when the key is resident and live at `now`, without promoting it
  /// (the invalidation broadcast's "does this node hold the key" probe).
  /// Expired entries found here are erased and counted.
  bool holds(std::uint64_t key, sim::SimTime now);

  /// Install (or refresh) a key with expiry `now + ttl`, evicting the
  /// least-recently-used entry when over capacity.
  void insert(std::uint64_t key, sim::SimTime now, sim::SimTime ttl);

  /// Drop a key; true when it was resident.
  bool invalidate(std::uint64_t key);

  std::size_t size() const { return index_.size(); }
  std::size_t capacity() const { return capacity_; }
  std::uint64_t evictions() const { return evictions_; }
  std::uint64_t expirations() const { return expirations_; }

 private:
  static constexpr std::uint32_t kNil = ~std::uint32_t{0};

  struct Entry {
    std::uint64_t key = 0;
    sim::SimTime expires;
    std::uint32_t prev = kNil;  // towards the MRU end
    std::uint32_t next = kNil;  // towards the LRU end; free-list link
  };

  /// Slot of `key`, or kNil when not resident.
  std::uint32_t find(std::uint64_t key);
  /// A live entry found by lookup()/holds(): erase it and count an
  /// expiration when it is dead at `now`; true when it survives.
  bool live_or_expire(std::uint32_t slot, sim::SimTime now);
  void link_front(std::uint32_t slot);
  void unlink(std::uint32_t slot);
  void erase(std::uint32_t slot);

  std::size_t capacity_;
  std::vector<Entry> entries_;
  std::uint32_t free_ = kNil;
  std::uint32_t head_ = kNil;  // most recently used
  std::uint32_t tail_ = kNil;  // least recently used
  sim::FlatMap index_;  // key -> slot
  std::uint64_t evictions_ = 0;
  std::uint64_t expirations_ = 0;
};

}  // namespace ntier::cache
