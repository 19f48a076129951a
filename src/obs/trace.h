#pragma once

#include <cstdint>
#include <deque>
#include <unordered_set>
#include <vector>

#include "sim/time.h"

namespace ntier::obs {

/// The fixed cross-tier event vocabulary. One request's life, in order:
/// client_send → (syn_retransmit | accept_drop)* → accept_enqueue? →
/// worker_pickup → get_endpoint_attempt → (get_endpoint_poll |
/// get_endpoint_skip | get_endpoint_timeout)* → endpoint_acquire →
/// backend_queue → service_start → service_end → endpoint_release →
/// client_done. Interleaved with those per-request events are the node-level
/// signals the paper's diagnosis correlates them against: pdflush/stall
/// episodes, iowait samples, lb_value updates and breaker transitions.
enum class EventKind : std::uint8_t {
  // -- client tier ------------------------------------------------------------
  kClientSend,      // first connection attempt (worker = client id)
  kSynRetransmit,   // dropped SYN re-sent after the RTO (aux = attempt #)
  kClientDone,      // response/failure at the client (value = response ms,
                    // aux = RequestOutcome)
  // -- front end (Apache) -----------------------------------------------------
  kAcceptEnqueue,   // parked in the listen backlog (value = resident)
  kAcceptDrop,      // backlog overflow: silent SYN drop (value = backlog size)
  kWorkerPickup,    // an MPM worker thread took the request (value = busy)
  // -- balancer (mod_jk) ------------------------------------------------------
  kGetEndpointAttempt,  // candidate chosen, endpoint hunt starts
                        // (worker = Tomcat idx, value = pool in_use)
  kGetEndpointPoll,     // Algorithm-1 wake-up re-check (value = waited ms)
  kGetEndpointTimeout,  // the acquirer gave up on this candidate
  kGetEndpointSkip,     // candidate passed over while ineligible
                        // (aux = WorkerState, 3 = breaker open)
  kEndpointAcquire,     // AJP connection obtained (value = pool in_use)
  kEndpointRelease,     // connection returned on response (value = in_use)
  // -- backend (Tomcat / MySQL) -----------------------------------------------
  kBackendQueue,    // entered the connector backlog (value = resident)
  kServiceStart,    // servlet thread started executing (value = busy threads)
  kServiceEnd,      // response leaves the backend (value = resident)
  // -- node-level signals -------------------------------------------------------
  kPdflushStart,    // writeback episode begins (value = dirty bytes claimed)
  kPdflushStop,     // writeback episode ends (value = bytes written)
  kStallStart,      // synthetic capacity stall begins (value = severity)
  kStallStop,       // synthetic capacity stall ends (value = severity)
  kBreakerState,    // circuit breaker transition (value: 0 closed, 1 open,
                    // 2 half-open)
  kLbValue,         // policy lb_value update (value = lb_value)
  kIoWait,          // periodic iowait sample (value = disk busy fraction)
  // -- probe subsystem (appended to keep prior numeric values stable) -----------
  kProbeSent,       // balancer probes a backend (value = pool size before)
  kProbeReply,      // probe answered (value = probed RIF, aux = latency µs)
  kProbeExpired,    // pooled result dropped (value = age ms; aux: 1 = stale,
                    // 2 = reuse budget spent, 3 = probe timeout)
  // -- overload control (appended to keep prior numeric values stable) ----------
  kAdmissionShed,   // limiter/CoDel refused work (value = limiter limit,
                    // aux = proto::ShedReason)
  kDeadlineExpired, // expired work shed at a tier (value = overdue ms,
                    // aux = proto::ShedReason)
  kLimitUpdate,     // AIMD limit adapted (value = new limit, aux = +1
                    // increase / -1 decrease)
  // -- KV data tier (appended to keep prior numeric values stable) --------------
  kKvQuorumRead,    // read quorum met (node = shard, value = wait ms,
                    // aux = down preference-list members at completion)
  kKvQuorumWrite,   // write quorum met (node = shard, value = wait ms,
                    // aux = down preference-list members at completion)
  kKvHandoffReplay, // one stashed hint replayed to its recovered home
                    // (node = home replica, worker = holder replica)
  kKvReadRepair,    // stale replica repaired after quorum divergence
                    // (node = shard, worker = repaired replica)
  kKvMigration,     // shard migration lifecycle (node = shard, worker =
                    // destination replica; aux = +1 start / 0 chunk / -1 done
                    // / -2 aborted)
  // -- cache tier (appended to keep prior numeric values stable) ----------------
  kCacheHit,        // look-aside hit (node = cache node, value = resident
                    // entries after the lookup)
  kCacheMiss,       // look-aside miss (node = cache node, value = resident
                    // entries after the lookup)
  kCacheInvalidate, // invalidation resolved (node = cache node, value =
                    // backlog at emission, aux = +1 delivered / -1 dropped
                    // on a full queue)
  kCacheCoalesced,  // miss joined an in-flight fill instead of fetching
                    // (node = cache node, value = waiters on the key)
  // -- recovery orchestration (appended to keep prior numeric values stable) ----
  kRecoveryEpisode,      // sustained-degradation episode lifecycle (value =
                         // degraded-metric ratio vs baseline, aux = +1
                         // declared / -1 stepped down)
  kRecoveryIntervention, // one staged intervention toggled (worker =
                         // RecoveryStage, aux = +1 applied / -1 lifted,
                         // value = stage-specific level)
};

const char* to_string(EventKind k);

/// Which tier emitted an event (the Perfetto "process" of its track).
enum class Tier : std::uint8_t {
  kClient,
  kApache,
  kBalancer,  // node = owning Apache, worker = Tomcat candidate
  kTomcat,
  kMysql,
  kKv,  // replicated KV data tier (node = shard or replica per EventKind)
  kCache,  // look-aside cache tier (node = cache node; -1 = tier-wide)
};

const char* to_string(Tier t);

/// One trace event: what + where + which request + when. `node` is the
/// server index within its tier (or the Apache that owns the balancer);
/// `worker` is the Tomcat candidate for balancer events, the client id for
/// client events, and a thread-slot hint elsewhere (-1 = n/a). `value` and
/// `aux` carry the kind-specific payload documented on EventKind.
struct TraceEvent {
  sim::SimTime at;
  std::uint64_t request = 0;  // 0 = not a per-request event
  double value = 0.0;
  std::int32_t worker = -1;
  std::int32_t aux = 0;
  std::int16_t node = -1;
  EventKind kind = EventKind::kClientSend;
  Tier tier = Tier::kClient;
};

/// The committed-queue accounting rule every consumer shares: a balancer's
/// commitment to a Tomcat rises on kGetEndpointAttempt and falls on
/// kGetEndpointTimeout and kEndpointRelease. Returns +1, -1 or 0.
inline int committed_delta(const TraceEvent& e) {
  switch (e.kind) {
    case EventKind::kGetEndpointAttempt:
      return +1;
    case EventKind::kGetEndpointTimeout:
    case EventKind::kEndpointRelease:
      return -1;
    default:
      return 0;
  }
}

/// Anyone who wants to see every emitted event as it happens: the online
/// millibottleneck detector and the telemetry feed are sinks. observe() runs
/// on the emission path, so implementations must be cheap and must not emit
/// events themselves.
class TraceSink {
 public:
  virtual ~TraceSink() = default;
  virtual void observe(const TraceEvent& e) = 0;
};

/// Tail-based sampling: instead of retaining everything (or a blind head
/// sample), events are parked in a time-bounded holding buffer and the keep
/// decision is made when they age out — by which time the online detector
/// has had `horizon` of hindsight to mark the episode windows and VLRT
/// requests worth keeping. What survives: detector-marked ranges, marked
/// (VLRT) requests end to end, every Nth request as an unbiased head sample,
/// and the low-volume node-level signals that form the causal-chain
/// skeleton.
struct TailConfig {
  bool enabled = false;
  /// How long events stay in the holding buffer before the keep decision is
  /// final. Must exceed the longest response time a marked request can have
  /// (its earliest events must still be buffered when kClientDone arrives).
  sim::SimTime horizon = sim::SimTime::seconds(12);
};

struct TraceConfig {
  /// Ring capacity in events (~48 B each). When full, the oldest events are
  /// overwritten and counted in dropped(); storage grows on demand, so an
  /// idle collector costs almost nothing.
  std::size_t capacity = 4u << 20;
  /// Retain events in the bounded ring. Turned off when the collector exists
  /// only to feed sinks (online detection / telemetry without --trace) or
  /// when tail sampling replaces full retention.
  bool ring = true;
  /// Tail-based sampling (additive: ring and tail can both be on, which the
  /// detection bench uses to compare full vs sampled volume in one run).
  TailConfig tail;
};

/// Cross-tier event sink: a bounded ring of TraceEvents in emission order
/// (which, in a discrete-event simulation, is also timestamp order).
/// Instrumentation sites hold a `TraceCollector*` that is null when tracing
/// is off and emit through the NTIER_TRACE_EVENT macro below, so the
/// disabled path is one predictable branch.
class TraceCollector {
 public:
  explicit TraceCollector(TraceConfig config = {}) : config_(config) {}

  TraceCollector(const TraceCollector&) = delete;
  TraceCollector& operator=(const TraceCollector&) = delete;

  void emit(sim::SimTime at, EventKind kind, Tier tier, int node, int worker,
            std::uint64_t request, double value = 0.0, std::int32_t aux = 0) {
    TraceEvent e;
    e.at = at;
    e.kind = kind;
    e.tier = tier;
    e.node = static_cast<std::int16_t>(node);
    e.worker = worker;
    e.request = request;
    e.value = value;
    e.aux = aux;
    push(e);
  }

  void push(const TraceEvent& e) {
    ++emitted_;
    for (TraceSink* s : sinks_) s->observe(e);
    if (config_.tail.enabled) tail_push(e);
    if (!config_.ring) return;
    if (ring_.size() < config_.capacity) {
      ring_.push_back(e);
      return;
    }
    // Full: overwrite the oldest event.
    ring_[head_] = e;
    head_ = (head_ + 1) % ring_.size();
    ++dropped_;
  }

  /// Register a sink that sees every event at emission time. Sinks are
  /// notified in registration order and must outlive the collector's use.
  void add_sink(TraceSink* sink) {
    if (sink) sinks_.push_back(sink);
  }

  std::uint64_t emitted() const { return emitted_; }
  /// Events overwritten because the ring was full.
  std::uint64_t dropped() const { return dropped_; }
  std::size_t size() const {
    return config_.ring ? ring_.size() : tail_kept_.size();
  }
  std::size_t capacity() const { return config_.capacity; }
  bool empty() const { return size() == 0; }

  /// Visit the retained events in chronological order. With the ring on this
  /// is the full (bounded) trace; in tail-only mode it is the sampled trace
  /// and requires finish_tail() to have drained the holding buffer.
  template <typename Fn>
  void for_each(Fn&& fn) const {
    if (config_.ring) {
      for (std::size_t i = 0; i < ring_.size(); ++i)
        fn(ring_[(head_ + i) % ring_.size()]);
    } else {
      for (const TraceEvent& e : tail_kept_) fn(e);
    }
  }

  /// Chronological copy of the retained events (ring unwrapped).
  std::vector<TraceEvent> snapshot() const {
    std::vector<TraceEvent> out;
    out.reserve(size());
    for_each([&out](const TraceEvent& e) { out.push_back(e); });
    return out;
  }

  // -- tail-based sampling ------------------------------------------------------
  bool tail_enabled() const { return config_.tail.enabled; }
  /// Keep every buffered and future event in [t0, t1]. `node` restricts the
  /// range to episode-relevant events of that Tomcat (balancer events
  /// committed to it, its backend events, retransmits and node-level
  /// signals); -1 keeps everything in the range.
  void mark_range(sim::SimTime t0, sim::SimTime t1, int node = -1);
  /// Keep every event of one request (the VLRT-chain guarantee: called at
  /// kClientDone, while the request's whole life is still inside `horizon`).
  void mark_request(std::uint64_t request) { tail_marked_requests_.insert(request); }
  /// Drain the holding buffer at end of run, finalising every keep decision.
  void finish_tail();
  /// Events that aged out of the holding buffer (keep decision made).
  std::uint64_t tail_seen() const { return tail_seen_; }
  std::uint64_t tail_kept() const { return tail_kept_count_; }
  double tail_kept_fraction() const {
    return tail_seen_ ? static_cast<double>(tail_kept_count_) /
                            static_cast<double>(tail_seen_)
                      : 0.0;
  }
  /// Chronological copy of the tail-sampled trace (requires finish_tail()).
  const std::vector<TraceEvent>& tail_events() const { return tail_kept_; }

  /// True when `e` is part of a Tomcat-`node` episode's causal-chain
  /// neighbourhood: node-level signals, balancer traffic committed to that
  /// worker, the worker's own backend events, and SYN retransmits.
  static bool episode_relevant(const TraceEvent& e, int node);

  void clear() {
    ring_.clear();
    head_ = 0;
    emitted_ = 0;
    dropped_ = 0;
    tail_buf_.clear();
    tail_kept_.clear();
    tail_marks_.clear();
    tail_marked_requests_.clear();
    tail_seen_ = 0;
    tail_kept_count_ = 0;
  }

 private:
  struct MarkRange {
    sim::SimTime t0;
    sim::SimTime t1;
    int node;
  };

  void tail_push(const TraceEvent& e);
  void tail_evict(const TraceEvent& e);
  bool tail_keep(const TraceEvent& e) const;

  TraceConfig config_;
  std::vector<TraceEvent> ring_;
  std::size_t head_ = 0;  // oldest retained event once the ring wrapped
  std::uint64_t emitted_ = 0;
  std::uint64_t dropped_ = 0;

  std::vector<TraceSink*> sinks_;

  std::deque<TraceEvent> tail_buf_;       // holding buffer, decision pending
  std::vector<TraceEvent> tail_kept_;     // sampled trace, chronological
  std::vector<MarkRange> tail_marks_;     // detector-marked episode windows
  std::unordered_set<std::uint64_t> tail_marked_requests_;
  std::uint64_t tail_seen_ = 0;
  std::uint64_t tail_kept_count_ = 0;
};

}  // namespace ntier::obs

// Emission macro used at every instrumentation site: a null-check, so the
// arguments are evaluated only when a collector is attached.
#define NTIER_TRACE_EVENT(collector, ...)             \
  do {                                                \
    if (collector) (collector)->emit(__VA_ARGS__);    \
  } while (0)
