#pragma once

#include <cstdint>
#include <vector>

#include "cache/config.h"
#include "cache/store.h"
#include "kv/tier.h"
#include "obs/trace.h"
#include "os/node.h"
#include "proto/request.h"
#include "sim/callback.h"
#include "sim/flat_map.h"
#include "sim/ring.h"
#include "sim/simulation.h"
#include "sim/slot_table.h"

namespace ntier::cache {

/// Counters of everything the cache tier did — the raw material for the
/// cache accounting identities checked by the chaos invariant matrix:
///   lookups == hits + misses
///   misses  == fills_started + coalesced_fills
///   invalidations_sent == delivered + dropped + pending (pending 0 after
///   drain)
/// Nothing is silently lost: an invalidation that cannot be queued is a
/// counted drop, and the entry TTL bounds how long the resulting staleness
/// survives.
struct CacheStats {
  std::uint64_t lookups = 0;
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  /// Backing-store fetches actually issued for misses.
  std::uint64_t fills_started = 0;
  std::uint64_t fills_completed = 0;
  std::uint64_t fill_failures = 0;  // quorum-failed fetches (nothing cached)
  /// Misses that joined an in-flight fill instead of issuing their own
  /// (single-flight coalescing).
  std::uint64_t coalesced_fills = 0;
  std::uint64_t inserts = 0;
  std::uint64_t evictions = 0;    // LRU capacity evictions, all nodes
  std::uint64_t expirations = 0;  // TTL lazy expiries, all nodes
  std::uint64_t writes_forwarded = 0;
  std::uint64_t invalidations_sent = 0;
  std::uint64_t invalidations_delivered = 0;
  std::uint64_t invalidations_dropped = 0;  // bounded queue overflowed
  std::uint64_t storms = 0;       // invalidation-storm faults applied
  std::uint64_t storm_ticks = 0;  // hot-key sweep rounds across all storms
  /// Fills whose backing fetch was deferred by the recovery refill gate.
  std::uint64_t gated_fills = 0;

  double hit_ratio() const {
    return lookups ? static_cast<double>(hits) / static_cast<double>(lookups)
                   : 0.0;
  }
};

/// Memcached-style look-aside cache tier between the Tomcat servlets and
/// the KV data tier. Each Tomcat's DbRouter is pinned to one cache node;
/// reads look the key up there (lookup CPU on the owning os::Node), misses
/// fetch through the KV read quorum and install the value (fill CPU), and
/// quorum-committed writes broadcast MESI-style invalidations to every
/// cache node holding the key. Invalidations drain from a bounded per-node
/// FIFO with per-item CPU cost, so a write burst builds a visible backlog —
/// the invalidation-storm millibottleneck — and single-flight coalescing
/// keeps a post-storm miss burst from stampeding the backing store.
class CacheTier {
 public:
  /// Completion of one client-visible operation; ok=false surfaces like a
  /// SQL error at the router (a failed quorum fetch or write).
  using DoneFn = sim::Callback<void(bool ok)>;

  CacheTier(sim::Simulation& simu, std::vector<os::Node*> nodes,
            kv::KvTier* backing, CacheConfig config);

  CacheTier(const CacheTier&) = delete;
  CacheTier& operator=(const CacheTier&) = delete;

  /// Look-aside read at cache node `node`: hit completes after the lookup
  /// demand; a miss fetches through the KV quorum (the request's original
  /// demand), pays the fill demand, installs the entry and completes every
  /// coalesced waiter in join order.
  void read(int node, const proto::RequestRef& req, sim::SimTime demand,
            DoneFn done);

  /// Write-through-to-quorum: forward to the KV write path; on quorum
  /// commit, broadcast invalidations to every node holding the key.
  void write(int node, const proto::RequestRef& req, sim::SimTime demand,
             DoneFn done);

  /// The kInvalidationStorm fault: every `storm_tick_interval` for
  /// `duration`, enqueue invalidations for the hottest `64 * intensity`
  /// Zipf ranks (key id == rank) on every node holding them — the cache
  /// analogue of a write burst sweeping the hot key set. Overlapping storms
  /// extend the end. Emits kStallStart/kStallStop on Tier::kCache so the
  /// causal-chain analyzer sees the episode.
  void begin_invalidation_storm(sim::SimTime duration, double intensity);
  /// Idempotent end backstop (also self-scheduled at the storm's end).
  void end_invalidation_storm();
  bool storm_active() const { return storm_active_; }

  void set_trace(obs::TraceCollector* t) { trace_ = t; }

  /// Recovery intervention: while on, every fill's backing fetch is delayed
  /// by a deterministic per-key jitter in [0, window) so a post-fault miss
  /// burst refills the store staggered instead of stampeding the quorum,
  /// and single-flight coalescing is imposed even when the config left it
  /// off — the waiters that pile up during the jitter join one fetch. The
  /// coalescing decision is latched per fill, so toggling the gate while
  /// fills are in flight is safe.
  void set_refill_gate(bool on,
                       sim::SimTime window = sim::SimTime::millis(40));
  bool refill_gate() const { return refill_gate_; }

  // -- topology ---------------------------------------------------------------
  const CacheConfig& config() const { return config_; }
  int num_nodes() const { return static_cast<int>(nodes_.size()); }
  const CacheStore& store(int n) const {
    return nodes_[static_cast<std::size_t>(n)].store;
  }
  kv::KvTier& backing() { return *kv_; }

  // -- accounting -------------------------------------------------------------
  const CacheStats& stats() const;
  /// Client-visible cache operations still outstanding (0 after drain).
  std::uint64_t ops_in_flight() const { return ops_in_flight_; }
  /// Fill records still held (0 after drain).
  std::size_t fills_held() const { return fills_.size(); }
  /// Invalidations queued or in service across all nodes (0 after drain).
  std::uint64_t invalidations_pending() const;

 private:
  /// One client-visible read or write, from its call to its completion.
  /// Every continuation on the way captures only its handle (or its fill's).
  struct Op {
    proto::RequestRef req;
    sim::SimTime demand;
    int node = -1;
    DoneFn done;
    /// Next read waiting on the same fill, in join order (0 = last).
    std::uint64_t next_waiter = 0;
  };
  using OpHandle = sim::SlotTable<Op>::Handle;

  /// One backing-store fetch for a missed key, from start_fill() to the
  /// installed value. `head`..`tail` lists the reads it completes: the
  /// leader first, then every coalesced waiter in join order.
  struct Fill {
    int node = -1;
    proto::RequestRef req;  // the leader's request (key, id)
    sim::SimTime demand;
    bool coalesced = false;  // latched at start; indexed in NodeState::fills
    bool ok = false;         // the fetch's outcome, set when it returns
    int joined = 0;          // reads on the list
    OpHandle head = 0;
    OpHandle tail = 0;
  };
  using FillHandle = sim::SlotTable<Fill>::Handle;

  struct NodeState {
    os::Node* node = nullptr;
    CacheStore store;
    /// In-flight coalesced fills by key (at most one per key).
    sim::FlatMap fills;
    sim::Ring<std::uint64_t> inval_queue;
    bool inval_busy = false;

    NodeState(os::Node* n, std::size_t capacity_entries)
        : node(n), store(capacity_entries) {}
  };

  void on_lookup(OpHandle h);
  void start_fill(OpHandle leader);
  void issue_fill(FillHandle fh);
  void on_filled(FillHandle fh);
  /// Free the op and run its continuation.
  void complete(OpHandle h, bool ok);
  void broadcast_invalidations(std::uint64_t key, std::uint64_t request);
  void enqueue_invalidation(int node, std::uint64_t key,
                            std::uint64_t request);
  void pump_invalidations(int node);
  void storm_tick();

  sim::Simulation& sim_;
  kv::KvTier* kv_;
  CacheConfig config_;
  obs::TraceCollector* trace_ = nullptr;
  std::vector<NodeState> nodes_;
  sim::SlotTable<Op> ops_;
  sim::SlotTable<Fill> fills_;

  mutable CacheStats stats_;
  std::uint64_t ops_in_flight_ = 0;

  bool refill_gate_ = false;
  sim::SimTime refill_gate_window_ = sim::SimTime::millis(40);

  bool storm_active_ = false;
  sim::SimTime storm_end_;
  std::uint64_t storm_keys_ = 0;
  double storm_intensity_ = 0.0;
  sim::SimTime storm_tick_interval_ = sim::SimTime::millis(10);
};

}  // namespace ntier::cache
