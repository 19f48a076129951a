#include "server/tomcat_server.h"

#include <algorithm>

namespace ntier::server {

TomcatServer::TomcatServer(sim::Simulation& simu, os::Node& node, int id,
                           DbRouter& db, TomcatConfig config)
    : sim_(simu), node_(node), id_(id), db_(db), config_(config) {
  if (config_.overload.admission) {
    limiter_ = std::make_unique<control::AdmissionLimiter>(
        simu, static_cast<double>(config_.max_threads),
        config_.overload.brownout);
    limiter_->start();
  }
}

bool TomcatServer::submit(const proto::RequestRef& req, RespondFn respond) {
  if (crashed_) return false;
  if (config_.overload.deadlines && expired(req)) {
    // Expired on arrival (the endpoint wait or the Apache→Tomcat link ate
    // the budget): refuse instead of queueing stale work. The Apache sees
    // the shed marker and fails the request without escalating mod_jk's
    // error state.
    ostats_.shed(*req, proto::ShedReason::kDeadlineExpired,
                 control::backend_demand_ms(*req));
    NTIER_TRACE_EVENT(trace_events_, sim_.now(),
                      obs::EventKind::kDeadlineExpired, obs::Tier::kTomcat,
                      id_, -1, req->id,
                      (sim_.now() - req->deadline).to_millis(),
                      static_cast<std::int32_t>(req->shed));
    return false;
  }
  if (limiter_ && !limiter_->try_admit(req->priority)) {
    // Retriable 503: the limiter clamped down on observed pickup delay.
    ostats_.shed(*req, limiter_->last_rejection(),
                 control::backend_demand_ms(*req));
    NTIER_TRACE_EVENT(trace_events_, sim_.now(),
                      obs::EventKind::kAdmissionShed, obs::Tier::kTomcat, id_,
                      -1, req->id, limiter_->limit(),
                      static_cast<std::int32_t>(req->shed));
    return false;
  }
  if (connector_queue_.size() >= kConnectorBacklog &&
      threads_busy_ >= config_.max_threads) {
    if (limiter_) limiter_->release();
    ++connector_drops_;
    return false;
  }
  if (crashed_) ++crashed_accepts_;  // chaos invariant: must never happen
  ++resident_;
  NTIER_TRACE_EVENT(trace_events_, sim_.now(), obs::EventKind::kBackendQueue,
                    obs::Tier::kTomcat, id_, -1, req->id,
                    static_cast<double>(resident_));
  connector_queue_.push_back(Work{req, std::move(respond), sim_.now()});
  dispatch();
  return true;
}

void TomcatServer::set_gray_degraded(double severity) {
  severity = std::clamp(severity, 0.0, 0.99);
  // Snapshot the load values the node will keep reporting for the fault's
  // lifetime. Taken before the factor flips so re-application mid-fault
  // cannot re-freeze at an already-degraded level.
  if (!gray_degraded()) {
    gray_frozen_rif_ = static_cast<double>(resident_);
    gray_frozen_latency_ms_ = latency_ewma_ms_;
  }
  gray_demand_factor_ = 1.0 / (1.0 - severity);
}

void TomcatServer::probe_load(probe::ProbePool::ReplyFn done) {
  if (crashed_) {
    done(false, 0.0, 0.0);
    return;
  }
  // Sampling resident_ when the probe job *completes* (not when it was
  // submitted) is deliberate: a stalled CPU both delays the answer and
  // reports the queue that built up meanwhile.
  const auto h = load_probes_.insert(std::move(done));
  node_.cpu().submit(kProbeDemand, [this, h] {
    load_probes_.take(h)(true, reported_rif(), reported_latency_ms());
  });
}

void TomcatServer::dispatch() {
  while (threads_busy_ < config_.max_threads && !connector_queue_.empty()) {
    Work w = connector_queue_.pop_front();
    // Worker-queue shed: work whose deadline passed while it sat in the
    // connector queue is answered (failed) without occupying a servlet
    // thread or touching the DB tier.
    if (config_.overload.deadlines && expired(w.req)) {
      shed_queued(std::move(w), proto::ShedReason::kDeadlineExpired);
      continue;
    }
    if (limiter_) limiter_->observe_delay(sim_.now() - w.arrived);
    ++threads_busy_;
    NTIER_TRACE_EVENT(trace_events_, sim_.now(), obs::EventKind::kServiceStart,
                      obs::Tier::kTomcat, id_, threads_busy_ - 1, w.req->id,
                      static_cast<double>(resident_));
    run(threads_.insert(std::move(w)));
  }
}

void TomcatServer::run(ThreadHandle h) {
  // Servlet CPU first, then the DB round trips, mirroring the
  // request-handling path (rendering happens around the queries; collapsing
  // the CPU into one job keeps the same total demand).
  const proto::Request& req = *threads_[h].req;
  sim::SimTime demand = req.tomcat_demand;
  if (gray_degraded()) {
    demand = sim::SimTime::from_seconds(demand.to_seconds() *
                                        gray_demand_factor_);
    ++gray_inflated_;
  }
  node_.cpu().submit(demand, [this, h] {
    db_round_trips(h, threads_[h].req->db_queries);
  });
}

void TomcatServer::db_round_trips(ThreadHandle h, int remaining) {
  // A copy, not a reference into threads_: a query that fails fast runs
  // the rest of this request (and the next pickup's insert) synchronously.
  const proto::RequestRef req = threads_[h].req;
  if (remaining <= 0) {
    complete(h);
    return;
  }
  if (req->shed != proto::ShedReason::kNone) {
    // The DbRouter shed the request mid-sequence (expired deadline): skip
    // the remaining queries and let the failure ride the normal response.
    ostats_.wasted_work_avoided_ms +=
        static_cast<double>(remaining) * req->mysql_demand.to_millis();
    complete(h);
    return;
  }
  // Each round trip checks a connection out of the router's pool and back
  // in, as the RUBBoS servlets do per query. The *last* db_writes trips are
  // writes (reads gather, the write commits), which the KV tier routes
  // through the write quorum.
  const bool is_write = remaining <= static_cast<int>(req->db_writes);
  db_.query(req, req->mysql_demand, is_write,
            [this, h, remaining] { db_round_trips(h, remaining - 1); });
}

void TomcatServer::complete(ThreadHandle h) {
  // Access/servlet/localhost log records become dirty pages (§III-B).
  node_.page_cache().write_dirty(threads_[h].req->log_bytes);
  const Work w = threads_.take(h);
  --threads_busy_;
  --resident_;
  ++served_;
  if (limiter_) limiter_->release();
  // EWMA over submit→response latency; alpha 0.2 tracks a millibottleneck
  // within a handful of completions without jittering on single requests.
  const double lat_ms = (sim_.now() - w.arrived).to_seconds() * 1e3;
  constexpr double kAlpha = 0.2;
  latency_ewma_ms_ = latency_ewma_ms_ == 0.0
                         ? lat_ms
                         : (1 - kAlpha) * latency_ewma_ms_ + kAlpha * lat_ms;
  NTIER_TRACE_EVENT(trace_events_, sim_.now(), obs::EventKind::kServiceEnd,
                    obs::Tier::kTomcat, id_, -1, w.req->id,
                    static_cast<double>(resident_));
  w.respond(w.req);
  dispatch();
}

void TomcatServer::shed_queued(Work w, proto::ShedReason reason) {
  --resident_;
  if (limiter_) limiter_->release();
  ostats_.shed(*w.req, reason, control::backend_demand_ms(*w.req));
  NTIER_TRACE_EVENT(trace_events_, sim_.now(), obs::EventKind::kDeadlineExpired,
                    obs::Tier::kTomcat, id_, -1, w.req->id,
                    (sim_.now() - w.req->deadline).to_millis(),
                    static_cast<std::int32_t>(reason));
  w.respond(w.req);
}

}  // namespace ntier::server
