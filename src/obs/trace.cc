#include "obs/trace.h"

#include <algorithm>

namespace ntier::obs {

namespace {

/// Keep every event of requests with id % kHeadEvery == 0 — a deterministic
/// unbiased baseline population (id 0 is not used by the workload, so the
/// sample is exactly 1/kHeadEvery of traffic).
constexpr std::uint64_t kHeadEvery = 101;

}  // namespace

// ---- tail-based sampling -----------------------------------------------------

bool TraceCollector::episode_relevant(const TraceEvent& e, int node) {
  // The range keeps exactly what the causal-chain join consumes for the
  // episode's worker: lb_value freshness, the committed-queue deltas
  // (attempt / timeout / release) and retransmits, plus the request-less
  // node-level signals (pdflush, iowait, stalls, breaker flips) that form
  // the chain skeleton. Everything else a diagnosis needs per request —
  // service times, polling, hop breakdowns — rides with the marked (VLRT)
  // requests, which are kept end to end regardless of ranges.
  if (e.kind == EventKind::kLbValue) return e.worker == node;
  if (e.request == 0) return true;
  if (e.kind == EventKind::kSynRetransmit) return true;
  if (e.tier == Tier::kBalancer)
    return e.worker == node && committed_delta(e) != 0;
  return false;
}

void TraceCollector::mark_range(sim::SimTime t0, sim::SimTime t1, int node) {
  if (t1 < t0) return;
  // Coalesce with an overlapping/adjacent existing range for the same node so
  // the mark list stays as short as the episode list, not the window count.
  for (MarkRange& m : tail_marks_) {
    if (m.node != node) continue;
    if (t0 <= m.t1 && m.t0 <= t1) {
      m.t0 = std::min(m.t0, t0);
      m.t1 = std::max(m.t1, t1);
      return;
    }
  }
  tail_marks_.push_back(MarkRange{t0, t1, node});
}

bool TraceCollector::tail_keep(const TraceEvent& e) const {
  if (e.request == 0) {
    // Node-level signals are the chain skeleton and are low-volume — except
    // kLbValue, which fires per completion and is only kept inside marked
    // episode windows (the only place a freeze gap is diagnostically useful).
    if (e.kind != EventKind::kLbValue) return true;
  } else {
    if (e.request % kHeadEvery == 0) return true;
    if (tail_marked_requests_.count(e.request)) return true;
  }
  for (const MarkRange& m : tail_marks_) {
    if (e.at < m.t0 || e.at > m.t1) continue;
    if (m.node < 0 || episode_relevant(e, m.node)) return true;
  }
  return false;
}

void TraceCollector::tail_evict(const TraceEvent& e) {
  ++tail_seen_;
  if (tail_keep(e)) {
    tail_kept_.push_back(e);
    ++tail_kept_count_;
  }
}

void TraceCollector::tail_push(const TraceEvent& e) {
  tail_buf_.push_back(e);
  const sim::SimTime watermark = e.at - config_.tail.horizon;
  while (!tail_buf_.empty() && tail_buf_.front().at < watermark) {
    tail_evict(tail_buf_.front());
    tail_buf_.pop_front();
  }
  // Ranges wholly behind the eviction watermark can never match again.
  if (!tail_marks_.empty() && !tail_buf_.empty()) {
    const sim::SimTime oldest = tail_buf_.front().at;
    tail_marks_.erase(
        std::remove_if(tail_marks_.begin(), tail_marks_.end(),
                       [oldest](const MarkRange& m) { return m.t1 < oldest; }),
        tail_marks_.end());
  }
}

void TraceCollector::finish_tail() {
  while (!tail_buf_.empty()) {
    tail_evict(tail_buf_.front());
    tail_buf_.pop_front();
  }
}

const char* to_string(EventKind k) {
  switch (k) {
    case EventKind::kClientSend: return "client_send";
    case EventKind::kSynRetransmit: return "syn_retransmit";
    case EventKind::kClientDone: return "client_done";
    case EventKind::kAcceptEnqueue: return "accept_enqueue";
    case EventKind::kAcceptDrop: return "accept_drop";
    case EventKind::kWorkerPickup: return "worker_pickup";
    case EventKind::kGetEndpointAttempt: return "get_endpoint_attempt";
    case EventKind::kGetEndpointPoll: return "get_endpoint_poll";
    case EventKind::kGetEndpointTimeout: return "get_endpoint_timeout";
    case EventKind::kGetEndpointSkip: return "get_endpoint_skip";
    case EventKind::kEndpointAcquire: return "endpoint_acquire";
    case EventKind::kEndpointRelease: return "endpoint_release";
    case EventKind::kBackendQueue: return "backend_queue";
    case EventKind::kServiceStart: return "service_start";
    case EventKind::kServiceEnd: return "service_end";
    case EventKind::kPdflushStart: return "pdflush_start";
    case EventKind::kPdflushStop: return "pdflush_stop";
    case EventKind::kStallStart: return "stall_start";
    case EventKind::kStallStop: return "stall_stop";
    case EventKind::kBreakerState: return "breaker_state";
    case EventKind::kLbValue: return "lb_value";
    case EventKind::kIoWait: return "iowait";
    case EventKind::kProbeSent: return "probe_sent";
    case EventKind::kProbeReply: return "probe_reply";
    case EventKind::kProbeExpired: return "probe_expired";
    case EventKind::kAdmissionShed: return "admission_shed";
    case EventKind::kDeadlineExpired: return "deadline_expired";
    case EventKind::kLimitUpdate: return "limit_update";
    case EventKind::kKvQuorumRead: return "kv_quorum_read";
    case EventKind::kKvQuorumWrite: return "kv_quorum_write";
    case EventKind::kKvHandoffReplay: return "kv_handoff_replay";
    case EventKind::kKvReadRepair: return "kv_read_repair";
    case EventKind::kKvMigration: return "kv_migration";
    case EventKind::kCacheHit: return "cache_hit";
    case EventKind::kCacheMiss: return "cache_miss";
    case EventKind::kCacheInvalidate: return "cache_invalidate";
    case EventKind::kCacheCoalesced: return "cache_coalesced";
    case EventKind::kRecoveryEpisode: return "recovery_episode";
    case EventKind::kRecoveryIntervention: return "recovery_intervention";
  }
  return "?";
}

const char* to_string(Tier t) {
  switch (t) {
    case Tier::kClient: return "client";
    case Tier::kApache: return "apache";
    case Tier::kBalancer: return "balancer";
    case Tier::kTomcat: return "tomcat";
    case Tier::kMysql: return "mysql";
    case Tier::kKv: return "kv";
    case Tier::kCache: return "cache";
  }
  return "?";
}

}  // namespace ntier::obs
