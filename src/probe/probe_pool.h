#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <vector>

#include "obs/trace.h"
#include "sim/callback.h"
#include "sim/rng.h"
#include "sim/simulation.h"
#include "sim/slot_table.h"
#include "sim/time.h"

namespace ntier::probe {

/// Routing decisions one probe result may serve before it is discarded
/// (Prequal's probe-reuse budget).
inline constexpr int kReuseBudget = 4;

/// Tunables of one balancer's probing loop (in the spirit of Prequal,
/// "Load is not what you should balance"). The defaults are sized for the
/// paper's millibottleneck time scale: stalls last tens to hundreds of
/// milliseconds, so probe state a few hundred milliseconds old is exactly
/// the stale-signal failure mode the subsystem exists to avoid.
struct ProbeConfig {
  bool enabled = false;
  /// Probe ticks per second. Each tick samples `d` distinct targets and
  /// sends one probe to each, so the per-backend probe rate is roughly
  /// rate_hz * d / num_workers.
  double rate_hz = 50.0;
  /// Power-of-d sampling: how many distinct targets each tick probes.
  int d = 3;
  /// A pooled result older than this is expired (never consulted again).
  sim::SimTime staleness = sim::SimTime::millis(400);
  /// An unanswered probe counts as failed after this long — which is what
  /// makes probing catch a millibottleneck: a stalled CPU answers a probe
  /// as late as it answers a request.
  sim::SimTime timeout = sim::SimTime::millis(30);
  /// Bounded pool of retained probe results; inserting into a full pool
  /// evicts the oldest entry.
  std::size_t capacity = 16;
};

/// One probe reply retained in the pool.
struct ProbeResult {
  int worker = -1;
  /// Requests in flight at the backend when it answered.
  double rif = 0.0;
  /// The backend's recent-service-latency estimate (EWMA, ms).
  double latency_ms = 0.0;
  /// Round trip of the probe itself (ms).
  double rtt_ms = 0.0;
  /// Reply arrival time (staleness is measured from here).
  sim::SimTime at;
  /// The owning balancer's own outstanding count on this worker when the
  /// reply arrived (via set_local_load; 0 when no estimator is attached).
  /// Lets policies correct the global snapshot for drift they can observe
  /// exactly: rif − local_rif + local_outstanding_now.
  double local_rif = 0.0;
  /// Routing decisions that already consulted this result.
  int uses = 0;
};

/// Asynchronous probing loop + bounded result pool, one per balancer.
///
/// Driven entirely off the simulation event loop and a forked deterministic
/// RNG, so runs stay byte-reproducible: every tick draws its power-of-d
/// target sample from the pool's own stream, replies arrive through the
/// caller-supplied transport (which models link and backend delays), and
/// expiry is evaluated lazily against the simulated clock.
///
/// The pool itself is policy-agnostic: lb policies consult it through
/// `freshest` and spend reuse budget through `note_use`.
class ProbePool {
 public:
  /// done(ok, rif, latency_ms) must eventually fire unless the backend is
  /// gone; the pool's own timeout covers the never-answers case.
  using ReplyFn = sim::Callback<void(bool ok, double rif, double latency_ms)>;
  using Transport = std::function<void(int worker, ReplyFn done)>;
  /// Snapshot of the owning balancer's own in-flight count on `worker`,
  /// evaluated when a reply is pooled (see ProbeResult::local_rif).
  using LocalLoadFn = std::function<double(int worker)>;

  ProbePool(sim::Simulation& simu, int num_workers, Transport transport,
            ProbeConfig config);

  ProbePool(const ProbePool&) = delete;
  ProbePool& operator=(const ProbePool&) = delete;

  const ProbeConfig& config() const { return config_; }
  int num_workers() const { return num_workers_; }

  /// Drop expired entries (stale or budget-spent) as of now. Policies call
  /// this at decision time; it is idempotent within one instant.
  void expire_now();

  /// The freshest unexpired result for `worker`, if any. Does not spend
  /// reuse budget.
  std::optional<ProbeResult> freshest(int worker) const;
  bool has_fresh(int worker) const { return freshest(worker).has_value(); }

  /// A routing decision consulted `worker`'s freshest result: spend one use
  /// of its reuse budget (discarding it once exhausted) and record the
  /// result's age for the freshness statistics.
  void note_use(int worker);

  /// Piggybacked load report (Prequal's probe-on-response mode): a normal
  /// response from `worker` carried its requests-in-flight and latency
  /// estimate. Pooled exactly like a probe reply — superseding the old
  /// entry and restarting its reuse budget — at zero probing cost, which
  /// is what keeps the pool millisecond-fresh on busy workers while the
  /// asynchronous probes cover idle and stalled ones. No-op when disabled.
  void observe(int worker, double rif, double latency_ms);
  /// Pool insertions that came from piggybacked reports, not probes.
  std::uint64_t piggybacked() const { return piggybacked_; }

  /// Number of retained (not yet expired) results.
  std::size_t size() const { return entries_.size(); }

  // -- statistics ------------------------------------------------------------
  std::uint64_t probes_sent() const { return sent_; }
  std::uint64_t replies() const { return replies_; }
  std::uint64_t timeouts() const { return timeouts_; }
  /// Entries dropped because they aged past `staleness`.
  std::uint64_t expired_stale() const { return expired_stale_; }
  /// Entries dropped because their reuse budget was spent.
  std::uint64_t expired_budget() const { return expired_budget_; }
  /// Routing decisions that consulted a pooled result.
  std::uint64_t uses() const { return uses_; }
  /// Mean result age at decision time (ms; 0 when never consulted).
  double mean_staleness_at_use_ms() const {
    return uses_ ? staleness_at_use_ms_sum_ / static_cast<double>(uses_) : 0.0;
  }

  /// Attach the balancer-local load estimator sampled at reply-pooling time
  /// (null disables; ProbeResult::local_rif then stays 0).
  void set_local_load(LocalLoadFn f) { local_load_ = std::move(f); }

  /// Attach the cross-tier event collector (null disables). Probe events are
  /// emitted with tier=kBalancer, node=`node` (the owning Apache / router),
  /// worker=probe target: kProbeSent, kProbeReply, kProbeExpired.
  void set_trace(obs::TraceCollector* trace, int node) {
    trace_ = trace;
    trace_node_ = node;
  }

 private:
  /// A probe that has neither been answered nor timed out. The reply and
  /// the timeout race on its handle: whichever runs first frees it, and the
  /// other finds a stale handle and does nothing.
  struct InFlight {
    int worker = -1;
    sim::SimTime sent_at;
  };
  using ProbeHandle = sim::SlotTable<InFlight>::Handle;

  void tick();
  void fire(int worker);
  void on_timeout(ProbeHandle h);
  void on_reply(ProbeHandle h, bool ok, double rif, double latency_ms);
  void insert(ProbeResult r);
  void trace_event(obs::EventKind kind, int worker, double value,
                   std::int32_t aux);

  sim::Simulation& sim_;
  int num_workers_;
  Transport transport_;
  LocalLoadFn local_load_;
  ProbeConfig config_;
  sim::Rng rng_;
  sim::SimTime interval_;

  /// Retained results, insertion-ordered (oldest first); bounded by
  /// config_.capacity.
  std::vector<ProbeResult> entries_;
  sim::SlotTable<InFlight> in_flight_;
  std::vector<int> sample_;  // tick()'s Fisher-Yates scratch

  std::uint64_t sent_ = 0;
  std::uint64_t replies_ = 0;
  std::uint64_t timeouts_ = 0;
  std::uint64_t expired_stale_ = 0;
  std::uint64_t expired_budget_ = 0;
  std::uint64_t piggybacked_ = 0;
  std::uint64_t uses_ = 0;
  double staleness_at_use_ms_sum_ = 0.0;

  obs::TraceCollector* trace_ = nullptr;
  int trace_node_ = -1;
};

}  // namespace ntier::probe
