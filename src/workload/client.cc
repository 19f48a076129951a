#include "workload/client.h"

#include <algorithm>
#include <stdexcept>

namespace ntier::workload {

namespace {

/// A 503 from the admission limiter is retriable: the client backs off
/// (the backoff times the attempt number) and re-attempts up to this many
/// times, while the deadline allows.
constexpr int kShedRetryLimit = 2;
constexpr sim::SimTime kShedRetryBackoff = sim::SimTime::millis(100);

}  // namespace

ClientPopulation::ClientPopulation(sim::Simulation& simu, ClientParams params,
                                   const RubbosWorkload& workload,
                                   std::vector<proto::FrontEnd*> frontends,
                                   metrics::RequestLog& log)
    : sim_(simu),
      params_(params),
      workload_(workload),
      frontends_(std::move(frontends)),
      log_(log),
      rng_(simu.rng().fork()) {
  if (frontends_.empty())
    throw std::invalid_argument("ClientPopulation: no front-ends");
  if (params_.num_clients <= 0)
    throw std::invalid_argument("ClientPopulation: no clients");
  if (params_.sticky_sessions)
    routes_.assign(static_cast<std::size_t>(params_.num_clients), -1);
}

void ClientPopulation::toggle_burst() {
  in_burst_ = !in_burst_;
  const sim::SimTime mean = in_burst_ ? kBurstOnMean : kBurstOffMean;
  sim_.after(rng_.exponential_time(mean), [this] { toggle_burst(); });
}

void ClientPopulation::start() {
  if (params_.bursty)
    sim_.after(rng_.exponential_time(kBurstOffMean),
               [this] { toggle_burst(); });
  for (int c = 0; c < params_.num_clients; ++c) {
    const auto client = static_cast<std::uint32_t>(c);
    const sim::SimTime offset = sim::SimTime::from_seconds(
        rng_.uniform(0.0, params_.ramp.to_seconds()));
    sim_.after(offset, [this, client] { issue(client); });
  }
}

void ClientPopulation::issue(std::uint32_t client) {
  if (quiesced_) return;
  auto req = workload_.make_request(requests_, rng_, next_request_id_++, client);
  req->client_start = sim_.now();
  if (params_.deadline_budget != sim::SimTime::zero())
    req->deadline = req->client_start + params_.deadline_budget;
  req->apache_id = static_cast<std::int16_t>(client % frontends_.size());
  if (!routes_.empty()) req->session_route = routes_[client];
  ++issued_;
  if (issue_hook_) issue_hook_(sim_.now(), *req);
  NTIER_TRACE_EVENT(trace_events_, sim_.now(), obs::EventKind::kClientSend,
                    obs::Tier::kClient, req->apache_id,
                    static_cast<int>(client), req->id, 0.0, req->interaction);
  attempt(flights_.insert(Flight{std::move(req), client, 0}));
}

void ClientPopulation::attempt(FlightHandle f) {
  // An injected link fault can lose the SYN on the wire; like a silent
  // backlog drop, that is only discovered by the retransmission timer. Loss
  // is deliberately not applied to responses — the client has no response
  // timeout, so a lost response would leak the request as forever-in-flight.
  if (link_.drops(rng_)) {
    connect_dropped(f);
    return;
  }
  // SYN travels one link latency; acceptance or silent drop happens at the
  // server side. A drop is only discovered by the retransmission timer.
  link_.deliver(sim_, [this, f] { on_syn_arrival(f); });
}

void ClientPopulation::on_syn_arrival(FlightHandle f) {
  const proto::RequestRef req = flights_[f].req;
  auto* fe = frontends_[static_cast<std::size_t>(req->apache_id)];
  const bool accepted =
      fe->try_submit(req, [this, f](const proto::RequestRef&, bool ok) {
        // Response travels back to the client.
        link_.deliver(sim_, [this, f, ok] { on_response(f, ok); });
      });
  if (!accepted) connect_dropped(f);
}

void ClientPopulation::on_response(FlightHandle f, bool ok) {
  Flight& fl = flights_[f];
  proto::Request& r = *fl.req;
  // An admission/brownout 503 is explicitly retriable: back off and
  // re-attempt (fresh connection) while the budget and the retry cap allow
  // — unlike a silent SYN drop, the client knows immediately and never
  // waits out a retransmission timer.
  if (!ok && !quiesced_ &&
      (r.shed == proto::ShedReason::kAdmission ||
       r.shed == proto::ShedReason::kBrownout) &&
      static_cast<int>(r.shed_retries) < kShedRetryLimit &&
      (r.deadline == sim::SimTime::zero() || sim_.now() < r.deadline)) {
    ++shed_retries_;
    r.shed_retries = static_cast<std::uint8_t>(r.shed_retries + 1);
    r.shed = proto::ShedReason::kNone;
    // Reset the per-hop stamps so a later success decomposes as the attempt
    // that actually served it.
    r.accepted_at = r.assigned_at = r.backend_done_at = sim::SimTime::zero();
    r.tomcat_id = -1;
    fl.tries = 0;
    const sim::SimTime backoff =
        kShedRetryBackoff * static_cast<std::int64_t>(r.shed_retries);
    sim_.after(backoff, [this, f] { attempt(f); });
    return;
  }
  finish(f, ok ? metrics::RequestOutcome::kOk
               : metrics::RequestOutcome::kBalancerError);
}

void ClientPopulation::connect_dropped(FlightHandle f) {
  ++connection_drops_;
  Flight& fl = flights_[f];
  const std::size_t tries = fl.tries;
  if (tries < params_.retransmit.max_retries()) {
    proto::Request& req = *fl.req;
    req.retransmissions = static_cast<std::uint8_t>(req.retransmissions + 1);
    NTIER_TRACE_EVENT(trace_events_, sim_.now(),
                      obs::EventKind::kSynRetransmit, obs::Tier::kClient,
                      req.apache_id, static_cast<int>(fl.client), req.id,
                      params_.retransmit.delay(tries).to_millis(),
                      req.retransmissions);
    fl.tries = tries + 1;
    sim_.after(params_.retransmit.delay(tries), [this, f] { attempt(f); });
  } else {
    finish(f, metrics::RequestOutcome::kDropped);
  }
}

void ClientPopulation::finish(FlightHandle f, metrics::RequestOutcome outcome) {
  const Flight fl = flights_.take(f);
  const proto::RequestRef& req = fl.req;
  const std::uint32_t client = fl.client;
  switch (outcome) {
    case metrics::RequestOutcome::kOk: ++completed_ok_; break;
    case metrics::RequestOutcome::kDropped: ++dropped_; break;
    case metrics::RequestOutcome::kBalancerError: ++failed_; break;
    case metrics::RequestOutcome::kInFlight: break;
  }
  if (!routes_.empty() && outcome == metrics::RequestOutcome::kOk &&
      req->tomcat_id >= 0)
    routes_[client] = req->tomcat_id;
  NTIER_TRACE_EVENT(trace_events_, sim_.now(), obs::EventKind::kClientDone,
                    obs::Tier::kClient, req->apache_id,
                    static_cast<int>(client), req->id,
                    (sim_.now() - req->client_start).to_millis(),
                    static_cast<std::int32_t>(outcome));
  if (req->client_start >= params_.warmup) {
    metrics::RequestRecord rec;
    rec.id = req->id;
    rec.interaction = req->interaction;
    rec.apache = req->apache_id;
    rec.tomcat = req->tomcat_id;
    rec.retransmissions = req->retransmissions;
    rec.outcome = outcome;
    rec.start = req->client_start;
    rec.end = sim_.now();
    rec.accepted_at = req->accepted_at;
    rec.assigned_at = req->assigned_at;
    rec.backend_done_at = req->backend_done_at;
    rec.deadline = req->deadline;
    rec.priority = req->priority;
    rec.shed = req->shed;
    rec.kv_wait_ms = req->kv_quorum_wait.to_millis();
    rec.kv_degraded_ms = req->kv_degraded_wait.to_millis();
    log_.on_complete(rec);
  }
  think_then_next(client);
}

void ClientPopulation::think_then_next(std::uint32_t client) {
  sim::SimTime think = rng_.exponential_time(params_.think_mean);
  if (in_burst_)
    think = sim::SimTime::from_seconds(think.to_seconds() /
                                       params_.burst_multiplier);
  sim_.after(think, [this, client] { issue(client); });
}

}  // namespace ntier::workload
