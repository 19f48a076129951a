#include "server/apache_server.h"

#include <cassert>

namespace ntier::server {

namespace {

/// The front-door admission limiter, started at construction (null when
/// overload admission is off).
std::unique_ptr<control::AdmissionLimiter> start_limiter(
    sim::Simulation& simu, const ApacheConfig& config) {
  if (!config.overload.admission) return nullptr;
  auto limiter = std::make_unique<control::AdmissionLimiter>(
      simu, static_cast<double>(config.max_clients + kListenBacklog),
      config.overload.brownout);
  limiter->start();
  return limiter;
}

}  // namespace

ApacheServer::ApacheServer(sim::Simulation& simu, os::Node& node, int id,
                           const std::vector<TomcatServer*>& tomcats,
                           std::unique_ptr<lb::LbPolicy> policy,
                           std::unique_ptr<lb::EndpointAcquirer> acquirer,
                           lb::BalancerConfig lb_config, ApacheConfig config)
    : sim_(simu),
      node_(node),
      id_(id),
      config_(config),
      limiter_(start_limiter(simu, config_)),
      route_(simu, {tomcats.begin(), tomcats.end()}, std::move(policy),
             std::move(acquirer), std::move(lb_config), config_.prober,
             config_.probe),
      backlog_(kListenBacklog) {
  assert(!tomcats.empty());
  if (config_.retry.enabled)
    retry_budget_ = std::make_unique<lb::RetryBudget>(
        config_.retry.budget_ratio, config_.retry.budget_burst);
}

bool ApacheServer::try_submit(const proto::RequestRef& req, RespondFn respond) {
  req->apache_id = static_cast<std::int16_t>(id_);
  // Recovery hard shedding: a fast 503 at the door, before the backlog or a
  // worker is touched, so the standing queues the metastable loop built up
  // can drain. Conservation holds — the client gets a (failed) response.
  if (recovery_shed_) {
    shed_unqueued(req, respond, proto::ShedReason::kRecovery,
                  /*release_limiter=*/false);
    return true;
  }
  // Overload control at the accept path: shed already-expired work, then ask
  // the admission limiter. Both answer the connection (a fast 503) instead
  // of silently dropping the SYN, so the client does not retransmit into
  // the stall.
  if (config_.overload.deadlines && expired(req)) {
    shed_unqueued(req, respond, proto::ShedReason::kDeadlineExpired,
                  /*release_limiter=*/false);
    return true;
  }
  if (limiter_ && !limiter_->try_admit(req->priority)) {
    shed_unqueued(req, respond, limiter_->last_rejection(),
                  /*release_limiter=*/false);
    return true;
  }
  if (workers_busy_ < config_.max_clients) {
    if (limiter_) limiter_->observe_delay(sim::SimTime::zero());
    if (queue_series_) queue_series_->set(sim_.now(), resident() + 1);
    start_worker(Work{req, std::move(respond)});
    return true;
  }
  if (!backlog_.try_push(Work{req, std::move(respond)}, sim_.now())) {
    if (limiter_) limiter_->release();
    NTIER_TRACE_EVENT(trace_events_, sim_.now(), obs::EventKind::kAcceptDrop,
                      obs::Tier::kApache, id_, -1, req->id,
                      static_cast<double>(backlog_.size()));
    return false;
  }
  NTIER_TRACE_EVENT(trace_events_, sim_.now(), obs::EventKind::kAcceptEnqueue,
                    obs::Tier::kApache, id_, -1, req->id,
                    static_cast<double>(backlog_.size()));
  if (queue_series_) queue_series_->set(sim_.now(), resident());
  return true;
}

void ApacheServer::start_worker(Work w) {
  ++workers_busy_;
  NTIER_TRACE_EVENT(trace_events_, sim_.now(), obs::EventKind::kWorkerPickup,
                    obs::Tier::kApache, id_, workers_busy_ - 1, w.req->id,
                    static_cast<double>(workers_busy_));
  w.req->accepted_at = sim_.now();
  ++first_attempts_;
  if (retry_budget_) retry_budget_->deposit();
  // Front-end CPU (parsing, handler setup), then the mod_jk balancer.
  const sim::SimTime demand = w.req->apache_demand;
  const JobHandle h = jobs_.insert(std::move(w));
  node_.cpu().submit(demand, [this, h] { dispatch(h, /*attempt=*/0); });
}

void ApacheServer::dispatch(JobHandle h, int attempt) {
  // Local copies of the request handle throughout: a balancer answer can
  // run synchronously and finish requests, reusing job and attempt slots.
  const proto::RequestRef req = jobs_[h].req;
  // Deadline check before entering the balancer: work that can no longer
  // finish in time is not worth an endpoint hunt.
  if (config_.overload.deadlines && expired(req)) {
    shed_worker(h, proto::ShedReason::kDeadlineExpired);
    return;
  }
  route_.balancer().assign(req, [this, h, attempt](int idx) {
    on_assigned(h, attempt, idx);
  });
}

void ApacheServer::on_assigned(JobHandle h, int attempt, int idx) {
  if (idx < 0) {
    // mod_jk 503: no backend yielded an endpoint.
    maybe_retry(h, attempt);
    return;
  }
  const proto::RequestRef req = jobs_[h].req;
  if (config_.overload.deadlines && expired(req)) {
    // The blocking get_endpoint can park the worker for hundreds of ms —
    // the deadline may have passed while we waited. Give the endpoint
    // back and shed instead of forwarding stale work to the backend.
    route_.balancer().on_response(idx, req);
    shed_worker(h, proto::ShedReason::kDeadlineExpired);
    return;
  }
  req->tomcat_id = static_cast<std::int16_t>(idx);
  req->assigned_at = sim_.now();
  route_.link().deliver(sim_, [this, h, attempt, idx] {
    forward(h, attempt, idx);
  });
}

void ApacheServer::forward(JobHandle h, int attempt, int idx) {
  const proto::RequestRef req = jobs_[h].req;
  const AttemptHandle a =
      attempts_.insert(Attempt{req, h, idx, attempt, /*abandoned=*/false});
  // The route was built over the Tomcats, so every backend is one.
  auto& tomcat = static_cast<TomcatServer&>(route_.backend(idx));
  const bool accepted = tomcat.submit(req, [this, a](const proto::RequestRef&) {
    route_.link().deliver(sim_, [this, a] { on_backend_response(a); });
  });
  if (accepted && config_.retry.enabled &&
      config_.retry.attempt_timeout > sim::SimTime::zero()) {
    sim_.after(config_.retry.attempt_timeout,
               [this, a] { on_attempt_timeout(a); });
  }
  if (accepted) return;
  attempts_.erase(a);
  route_.balancer().on_response(idx, req);
  if (req->shed != proto::ShedReason::kAdmission &&
      req->shed != proto::ShedReason::kBrownout) {
    // Connector backlog overflow or a crashed Tomcat (a connect failure in
    // mod_jk terms): feed the failure into the worker's Busy/Error
    // escalation. An explicit 503 from the backend's admission limiter
    // means the Tomcat is alive and answering fast, so it does not
    // escalate. Either way, retry elsewhere if allowed.
    route_.balancer().report_failure(idx);
  }
  maybe_retry(h, attempt);
}

void ApacheServer::on_backend_response(AttemptHandle a) {
  // Only this answer frees an accepted attempt, so the handle is live.
  const Attempt at = attempts_.take(a);
  // Release the endpoint and pool the Tomcat's piggybacked load report,
  // which keeps the pool millisecond-fresh on workers in active use.
  route_.on_reply(at.tomcat, at.req);
  if (at.abandoned) return;  // the retry path already owns the request
  at.req->backend_done_at = sim_.now();
  if (at.attempt > 0) ++retry_successes_;
  // A backend tier may have shed the request mid-flight (expired deadline
  // at the Tomcat queue or DbRouter); the response then carries the
  // failure to the client.
  finish(at.job, /*ok=*/at.req->shed == proto::ShedReason::kNone);
}

void ApacheServer::on_attempt_timeout(AttemptHandle a) {
  Attempt* at = attempts_.find(a);
  if (at == nullptr) return;  // the backend answered first
  at->abandoned = true;
  ++attempts_abandoned_;
  maybe_retry(at->job, at->attempt);
}

void ApacheServer::maybe_retry(JobHandle h, int attempt) {
  const lb::RetryConfig& rc = config_.retry;
  const proto::RequestRef& req = jobs_[h].req;
  const bool dead = config_.overload.deadlines && expired(req);
  if (retry_suppressed_ && !dead && rc.enabled &&
      attempt + 1 < rc.max_attempts) {
    // Recovery intervention: the retry would have been eligible, but the
    // orchestrator is breaking the amplification loop. Fail fast instead.
    ++retries_suppressed_;
    finish(h, /*ok=*/false);
    return;
  }
  if (!dead && rc.enabled && attempt + 1 < rc.max_attempts &&
      sim_.now() - req->accepted_at < rc.request_timeout &&
      retry_budget_->try_take()) {
    ++retries_;
    // A backend shed from a previous attempt must not taint the retry.
    req->shed = proto::ShedReason::kNone;
    sim_.after(rc.backoff(attempt),
               [this, h, attempt] { dispatch(h, attempt + 1); });
    return;
  }
  finish(h, /*ok=*/false);
}

void ApacheServer::finish(JobHandle h, bool ok) {
  const Work w = jobs_.take(h);
  node_.page_cache().write_dirty(kApacheLogBytes);
  ++served_;
  w.respond(w.req, ok);
  --workers_busy_;
  if (limiter_) limiter_->release();
  admit_from_backlog();
  if (queue_series_) queue_series_->set(sim_.now(), resident());
}

void ApacheServer::admit_from_backlog() {
  while (auto next = backlog_.try_pop_timed()) {
    Work w = std::move(next->first);
    const sim::SimTime enqueued = next->second;
    if (config_.overload.deadlines && expired(w.req)) {
      backlog_.count_drop(net::DropReason::kDeadline);
      shed_unqueued(w.req, w.respond, proto::ShedReason::kDeadlineExpired,
                    /*release_limiter=*/true);
      continue;
    }
    // CoDel drains the standing queue a pdflush stall built up: once
    // sojourn has exceeded target for a full interval, shed on dequeue with
    // control-law spacing. High-priority work (priority 0) is never
    // CoDel-shed — it waited, so it runs.
    if (config_.overload.codel && w.req->priority > 0 &&
        codel_.should_drop(enqueued, sim_.now())) {
      backlog_.count_drop(net::DropReason::kSojourn);
      shed_unqueued(w.req, w.respond, proto::ShedReason::kSojourn,
                    /*release_limiter=*/true);
      continue;
    }
    if (limiter_) limiter_->observe_delay(sim_.now() - enqueued);
    start_worker(std::move(w));
    return;
  }
}

void ApacheServer::shed_unqueued(const proto::RequestRef& req,
                                 const RespondFn& respond,
                                 proto::ShedReason reason,
                                 bool release_limiter) {
  if (release_limiter && limiter_) limiter_->release();
  count_shed(req, reason, /*include_apache_demand=*/true);
  respond(req, /*ok=*/false);
}

void ApacheServer::shed_worker(JobHandle h, proto::ShedReason reason) {
  count_shed(jobs_[h].req, reason, /*include_apache_demand=*/false);
  finish(h, /*ok=*/false);
}

void ApacheServer::count_shed(const proto::RequestRef& req,
                              proto::ShedReason reason,
                              bool include_apache_demand) {
  // Backend service demand this shed avoided burning during the overload.
  double avoided_ms = control::backend_demand_ms(*req);
  if (include_apache_demand) avoided_ms += req->apache_demand.to_millis();
  ostats_.shed(*req, reason, avoided_ms);
  if (reason == proto::ShedReason::kDeadlineExpired) {
    NTIER_TRACE_EVENT(trace_events_, sim_.now(),
                      obs::EventKind::kDeadlineExpired, obs::Tier::kApache,
                      id_, -1, req->id,
                      (sim_.now() - req->deadline).to_millis(),
                      static_cast<std::int32_t>(reason));
  } else {
    NTIER_TRACE_EVENT(trace_events_, sim_.now(),
                      obs::EventKind::kAdmissionShed, obs::Tier::kApache, id_,
                      -1, req->id, limiter_ ? limiter_->limit() : 0.0,
                      static_cast<std::int32_t>(reason));
  }
}

}  // namespace ntier::server
