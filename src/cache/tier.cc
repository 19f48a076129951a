#include "cache/tier.h"

#include <cmath>
#include <stdexcept>
#include <utility>

#include "sim/rng.h"

namespace ntier::cache {

namespace {

/// CPU demand of a cache lookup (hit or miss) on the owning node.
constexpr sim::SimTime kLookupDemand = sim::SimTime::micros(30);
/// CPU demand of installing a fetched value after a miss.
constexpr sim::SimTime kFillDemand = sim::SimTime::micros(60);
/// CPU demand of applying one queued invalidation.
constexpr sim::SimTime kInvalidateDemand = sim::SimTime::micros(20);

}  // namespace

CacheTier::CacheTier(sim::Simulation& simu, std::vector<os::Node*> nodes,
                     kv::KvTier* backing, CacheConfig config)
    : sim_(simu), kv_(backing), config_(config) {
  if (!kv_) throw std::invalid_argument("CacheTier: null backing kv tier");
  if (nodes.empty()) throw std::invalid_argument("CacheTier: no nodes");
  nodes_.reserve(nodes.size());
  for (os::Node* n : nodes) nodes_.emplace_back(n, config_.capacity_entries());
}

void CacheTier::read(int node, const proto::RequestRef& req,
                     sim::SimTime demand, DoneFn done) {
  ++ops_in_flight_;
  ++stats_.lookups;
  const OpHandle h = ops_.insert(Op{req, demand, node, std::move(done)});
  nodes_[static_cast<std::size_t>(node)].node->cpu().submit(
      kLookupDemand, [this, h] { on_lookup(h); });
}

void CacheTier::complete(OpHandle h, bool ok) {
  --ops_in_flight_;
  const DoneFn done = std::move(ops_.take(h).done);
  done(ok);
}

void CacheTier::on_lookup(OpHandle h) {
  const Op& op = ops_[h];
  const int node = op.node;
  const std::uint64_t key = op.req->key;
  const std::uint64_t request = op.req->id;
  auto& s = nodes_[static_cast<std::size_t>(node)];
  if (s.store.lookup(key, sim_.now())) {
    ++stats_.hits;
    NTIER_TRACE_EVENT(trace_, sim_.now(), obs::EventKind::kCacheHit,
                      obs::Tier::kCache, node, -1, request,
                      static_cast<double>(s.store.size()));
    complete(h, true);
    return;
  }
  ++stats_.misses;
  NTIER_TRACE_EVENT(trace_, sim_.now(), obs::EventKind::kCacheMiss,
                    obs::Tier::kCache, node, -1, request,
                    static_cast<double>(s.store.size()));
  if (config_.coalesce || refill_gate_) {
    if (const std::uint64_t* joined = s.fills.find(key)) {
      // Single flight: join the in-flight fill instead of issuing a second
      // quorum fetch for the same key.
      ++stats_.coalesced_fills;
      Fill& f = fills_[*joined];
      ops_[f.tail].next_waiter = h;
      f.tail = h;
      ++f.joined;
      NTIER_TRACE_EVENT(trace_, sim_.now(), obs::EventKind::kCacheCoalesced,
                        obs::Tier::kCache, node, -1, request,
                        static_cast<double>(f.joined));
      return;
    }
  }
  start_fill(h);
}

void CacheTier::set_refill_gate(bool on, sim::SimTime window) {
  refill_gate_ = on;
  if (window > sim::SimTime()) refill_gate_window_ = window;
}

void CacheTier::start_fill(OpHandle leader) {
  ++stats_.fills_started;
  const Op& op = ops_[leader];
  // The gate imposes *emergency single-flight* on top of the stagger: a
  // stampede's duplicate fills are the load the orchestrator is trying to
  // shed, so while gated every concurrent miss for a key joins one quorum
  // fetch even when the config left coalescing off. Latched per fill so a
  // mid-flight gate toggle cannot orphan or double-complete waiters.
  Fill f;
  f.node = op.node;
  f.req = op.req;
  f.demand = op.demand;
  f.coalesced = config_.coalesce || refill_gate_;
  f.joined = 1;
  f.head = f.tail = leader;
  const std::uint64_t key = f.req->key;
  const FillHandle fh = fills_.insert(std::move(f));
  if (fills_[fh].coalesced)
    nodes_[static_cast<std::size_t>(fills_[fh].node)].fills.insert(key, fh);
  if (refill_gate_) {
    ++stats_.gated_fills;
    // Deterministic per-key stagger: same key -> same offset, every run.
    const double frac = static_cast<double>(sim::Rng::mix64(key) % 1024) / 1024.0;
    sim_.after(
        sim::SimTime::from_seconds(refill_gate_window_.to_seconds() * frac),
        [this, fh] { issue_fill(fh); });
  } else {
    issue_fill(fh);
  }
}

void CacheTier::issue_fill(FillHandle fh) {
  const Fill& f = fills_[fh];
  kv_->read(f.req, f.demand, [this, fh](bool ok) {
    Fill& fetched = fills_[fh];
    fetched.ok = ok;
    // The fetched value is installed (or the failure surfaced) only after
    // the fill demand runs on the cache node, so queueing there is part of
    // every waiter's latency.
    nodes_[static_cast<std::size_t>(fetched.node)].node->cpu().submit(
        kFillDemand, [this, fh] { on_filled(fh); });
  });
}

void CacheTier::on_filled(FillHandle fh) {
  const Fill f = fills_.take(fh);
  auto& t = nodes_[static_cast<std::size_t>(f.node)];
  if (f.ok) {
    ++stats_.fills_completed;
    ++stats_.inserts;
    t.store.insert(f.req->key, sim_.now(), config_.ttl);
  } else {
    ++stats_.fill_failures;
  }
  if (f.coalesced) t.fills.erase(f.req->key);
  // Each read is freed before its continuation runs, which may start new
  // reads (and even a new fill for this key).
  for (OpHandle w = f.head; w != 0;) {
    const OpHandle next = ops_[w].next_waiter;
    complete(w, f.ok);
    w = next;
  }
}

void CacheTier::write(int node, const proto::RequestRef& req,
                      sim::SimTime demand, DoneFn done) {
  ++ops_in_flight_;
  ++stats_.writes_forwarded;
  const OpHandle h = ops_.insert(Op{req, demand, node, std::move(done)});
  // The broadcast reaches every node holding the key, not just `node`.
  kv_->write(req, demand, [this, h](bool ok) {
    if (ok) {
      const Op& op = ops_[h];
      broadcast_invalidations(op.req->key, op.req->id);
    }
    complete(h, ok);
  });
}

void CacheTier::broadcast_invalidations(std::uint64_t key,
                                        std::uint64_t request) {
  for (int m = 0; m < num_nodes(); ++m) {
    auto& ns = nodes_[static_cast<std::size_t>(m)];
    if (!ns.store.holds(key, sim_.now())) continue;
    enqueue_invalidation(m, key, request);
  }
}

void CacheTier::enqueue_invalidation(int node, std::uint64_t key,
                                     std::uint64_t request) {
  auto& ns = nodes_[static_cast<std::size_t>(node)];
  ++stats_.invalidations_sent;
  const std::size_t backlog = ns.inval_queue.size() + (ns.inval_busy ? 1 : 0);
  if (backlog >= config_.invalidation_queue_capacity) {
    // Bounded queue overflowed: the invalidation is dropped (counted, never
    // silent) and the entry stays stale until its TTL expires.
    ++stats_.invalidations_dropped;
    NTIER_TRACE_EVENT(trace_, sim_.now(), obs::EventKind::kCacheInvalidate,
                      obs::Tier::kCache, node, -1, request,
                      static_cast<double>(backlog), /*aux=*/-1);
    return;
  }
  ns.inval_queue.push_back(key);
  pump_invalidations(node);
}

void CacheTier::pump_invalidations(int node) {
  auto& ns = nodes_[static_cast<std::size_t>(node)];
  if (ns.inval_busy || ns.inval_queue.empty()) return;
  ns.inval_busy = true;
  const std::uint64_t key = ns.inval_queue.pop_front();
  ns.node->cpu().submit(kInvalidateDemand, [this, node, key] {
    auto& s = nodes_[static_cast<std::size_t>(node)];
    s.store.invalidate(key);
    ++stats_.invalidations_delivered;
    NTIER_TRACE_EVENT(trace_, sim_.now(), obs::EventKind::kCacheInvalidate,
                      obs::Tier::kCache, node, -1, /*request=*/0,
                      static_cast<double>(s.inval_queue.size()), /*aux=*/1);
    s.inval_busy = false;
    pump_invalidations(node);
  });
}

void CacheTier::begin_invalidation_storm(sim::SimTime duration,
                                         double intensity) {
  ++stats_.storms;
  const sim::SimTime end = sim_.now() + duration;
  const auto keys = static_cast<std::uint64_t>(
      std::llround(64.0 * (intensity > 0 ? intensity : 1.0)));
  if (storm_active_) {
    // Overlapping storms extend the window and take the larger sweep.
    if (end > storm_end_) storm_end_ = end;
    if (keys > storm_keys_) storm_keys_ = keys;
    return;
  }
  storm_active_ = true;
  storm_end_ = end;
  storm_keys_ = keys ? keys : 1;
  storm_intensity_ = intensity;
  NTIER_TRACE_EVENT(trace_, sim_.now(), obs::EventKind::kStallStart,
                    obs::Tier::kCache, -1, -1, /*request=*/0, intensity);
  storm_tick();
}

void CacheTier::storm_tick() {
  if (!storm_active_) return;
  if (sim_.now() >= storm_end_) {
    end_invalidation_storm();
    return;
  }
  ++stats_.storm_ticks;
  // Sweep the hottest Zipf ranks (workload key id == popularity rank): the
  // write burst keeps re-dirtying exactly the keys the cache protects.
  for (std::uint64_t k = 0; k < storm_keys_; ++k) {
    auto& root = nodes_;
    for (int m = 0; m < static_cast<int>(root.size()); ++m) {
      if (!root[static_cast<std::size_t>(m)].store.holds(k, sim_.now()))
        continue;
      enqueue_invalidation(m, k, /*request=*/0);
    }
  }
  sim_.after(storm_tick_interval_, [this] { storm_tick(); });
}

void CacheTier::end_invalidation_storm() {
  if (!storm_active_) return;
  if (sim_.now() < storm_end_) return;  // extended by an overlapping storm
  storm_active_ = false;
  NTIER_TRACE_EVENT(trace_, sim_.now(), obs::EventKind::kStallStop,
                    obs::Tier::kCache, -1, -1, /*request=*/0,
                    storm_intensity_);
}

const CacheStats& CacheTier::stats() const {
  stats_.evictions = 0;
  stats_.expirations = 0;
  for (const auto& ns : nodes_) {
    stats_.evictions += ns.store.evictions();
    stats_.expirations += ns.store.expirations();
  }
  return stats_;
}

std::uint64_t CacheTier::invalidations_pending() const {
  std::uint64_t pending = 0;
  for (const auto& ns : nodes_)
    pending += ns.inval_queue.size() + (ns.inval_busy ? 1 : 0);
  return pending;
}

}  // namespace ntier::cache
