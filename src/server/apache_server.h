#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "control/admission.h"
#include "control/codel.h"
#include "control/overload.h"
#include "lb/retry.h"
#include "metrics/time_series.h"
#include "net/bounded_queue.h"
#include "obs/trace.h"
#include "os/node.h"
#include "proto/frontend.h"
#include "server/route.h"
#include "server/tomcat_server.h"
#include "sim/simulation.h"
#include "sim/slot_table.h"

namespace ntier::server {

/// Effective listen backlog. Apache asks for ListenBacklog=511, but the
/// kernel clamps it to net.core.somaxconn, which defaults to 128 on the
/// paper's Fedora 15 / kernel 3.3 testbed. Overflow = silent SYN drop — the
/// birthplace of the VLRT requests.
inline constexpr std::size_t kListenBacklog = 128;

/// Access-log bytes per request (dirties the Apache node's page cache; only
/// matters in scenarios where Apache-side pdflush is enabled).
inline constexpr std::uint32_t kApacheLogBytes = 200;

struct ApacheConfig {
  /// Worker-MPM request-handling threads (Table III: MaxClients 200).
  int max_clients = 200;

  /// Active health probing of the Tomcats (off by default — the stock
  /// mod_jk setup the paper studies has none).
  lb::ProberConfig prober;
  /// Front-end retry layer: budgeted, capped-backoff retries of balancer
  /// 503s and backend refusals (off by default).
  lb::RetryConfig retry;
  /// Prequal-style load probing of the Tomcats (src/probe). Only the
  /// probe-aware policies (kPowerOfD, kPrequal) consume the pool; for every
  /// other policy an enabled pool just generates ignored probe traffic.
  probe::ProbeConfig probe;
  /// End-to-end overload control (src/control): deadline shedding at accept
  /// and endpoint-wait, an AIMD admission limiter at the front door, and
  /// CoDel sojourn drops on the listen backlog (all off by default).
  control::OverloadConfig overload;
};

/// Web tier front-end. Accepts client connections into a bounded backlog,
/// handles each with one of `max_clients` worker threads, and forwards to
/// the Tomcat tier through its own route (a mod_jk balancer instance and
/// the Apache↔Tomcat link) — including,
/// when the stock blocking `get_endpoint` is configured, parking the worker
/// thread for up to 300 ms inside the balancer. Worker exhaustion therefore
/// propagates backend millibottlenecks into front-end SYN drops exactly as
/// the paper describes (queue amplification + push-back wave).
class ApacheServer final : public proto::FrontEnd {
 public:
  ApacheServer(sim::Simulation& simu, os::Node& node, int id,
               const std::vector<TomcatServer*>& tomcats,
               std::unique_ptr<lb::LbPolicy> policy,
               std::unique_ptr<lb::EndpointAcquirer> acquirer,
               lb::BalancerConfig lb_config, ApacheConfig config = {});

  /// proto::FrontEnd — false when the listen backlog is full (SYN dropped).
  bool try_submit(const proto::RequestRef& req, RespondFn respond) override;

  os::Node& node() { return node_; }
  /// The hop to the Tomcats: balancer, link, prober and probe pool.
  Route& route() { return route_; }
  const Route& route() const { return route_; }
  lb::LoadBalancer& balancer() { return route_.balancer(); }
  const lb::LoadBalancer& balancer() const { return route_.balancer(); }

  /// Requests resident in this Apache (backlog + all worker threads,
  /// including those blocked inside get_endpoint).
  int resident() const { return static_cast<int>(backlog_.size()) + workers_busy_; }
  /// Record resident() into `g` on every change (null = off; the caller
  /// owns and finishes the series).
  void set_queue_series(metrics::GaugeSeries* g) { queue_series_ = g; }

  std::uint64_t served() const { return served_; }
  std::uint64_t syn_drops() const {
    return backlog_.drops(net::DropReason::kOverflow);
  }
  int workers_busy() const { return workers_busy_; }

  /// Shed/expired accounting for this Apache (see control::OverloadStats).
  const control::OverloadStats& overload_stats() const { return ostats_; }

  std::uint64_t retries() const { return retries_; }
  std::uint64_t retry_successes() const { return retry_successes_; }
  /// In-flight attempts given up on after retry.attempt_timeout (the backend
  /// kept working; the front end stopped waiting). Wasted-work numerator.
  std::uint64_t attempts_abandoned() const { return attempts_abandoned_; }
  /// Requests that entered a worker on their first attempt (denominator of
  /// the retry-to-first-attempt ratio the recovery orchestrator keys on).
  std::uint64_t first_attempts() const { return first_attempts_; }

  // -- recovery orchestration hooks (src/recovery) ---------------------------
  /// Retry suppression: while on, eligible retries are dropped instead of
  /// re-dispatched (breaking the retry-amplification sustaining loop).
  void set_retry_suppressed(bool on) { retry_suppressed_ = on; }
  std::uint64_t retries_suppressed() const { return retries_suppressed_; }
  /// Hard shedding: while on, new arrivals are answered with a fast
  /// recovery 503 before touching the backlog or a worker, so standing
  /// queues drain below the orchestrator's watermark.
  void set_recovery_shed(bool on) { recovery_shed_ = on; }

  /// Attach the cross-tier event collector (null disables). Emits accept
  /// enqueue/drop and worker-pickup events with tier=kApache, node=id, and
  /// forwards the collector to the route.
  void set_trace(obs::TraceCollector* trace) {
    trace_events_ = trace;
    route_.set_trace(trace, id_);
    if (limiter_) limiter_->set_trace(trace, obs::Tier::kApache, id_);
  }

 private:
  struct Work {
    proto::RequestRef req;
    RespondFn respond;
  };
  /// A request held by a worker thread, from pickup to finish(); every
  /// continuation on the way captures only this handle.
  using JobHandle = sim::SlotTable<Work>::Handle;
  /// One forwarding attempt to a Tomcat, alive until the backend's answer
  /// is back at this Apache: a late answer to an abandoned attempt still
  /// releases the endpoint and refreshes the piggybacked load report. The
  /// abandon timer and the answer race for the request's continuation. The
  /// answer frees the record, so a timer that fires later finds a stale
  /// handle and does nothing. A timer that fires first marks the record
  /// `abandoned` and hands the request to the retry path.
  struct Attempt {
    proto::RequestRef req;
    JobHandle job = 0;
    int tomcat = -1;
    int attempt = 0;
    bool abandoned = false;
  };
  using AttemptHandle = sim::SlotTable<Attempt>::Handle;

  void start_worker(Work w);
  void dispatch(JobHandle h, int attempt);
  /// The balancer answered attempt `attempt` with Tomcat `idx` (-1 = 503).
  void on_assigned(JobHandle h, int attempt, int idx);
  /// The request reached Tomcat `idx` over the link: submit it there.
  void forward(JobHandle h, int attempt, int idx);
  void on_backend_response(AttemptHandle a);
  void on_attempt_timeout(AttemptHandle a);
  void maybe_retry(JobHandle h, int attempt);
  void finish(JobHandle h, bool ok);
  /// Pop the backlog until a request survives the overload checks (deadline,
  /// CoDel sojourn) and start a worker on it.
  void admit_from_backlog();
  /// True when the request carries a deadline that has already passed.
  bool expired(const proto::RequestRef& req) const {
    return req->deadline != sim::SimTime::zero() && sim_.now() > req->deadline;
  }
  /// Shed before any worker was involved (front door / backlog): a failed
  /// response without touching worker accounting.
  void shed_unqueued(const proto::RequestRef& req, const RespondFn& respond,
                     proto::ShedReason reason, bool release_limiter);
  /// Shed while a worker holds the request (endpoint wait): goes through
  /// finish() so worker/limiter/backlog accounting stays intact.
  void shed_worker(JobHandle h, proto::ShedReason reason);
  void count_shed(const proto::RequestRef& req, proto::ShedReason reason,
                  bool include_apache_demand);

  sim::Simulation& sim_;
  os::Node& node_;
  int id_;
  ApacheConfig config_;
  /// Started before the route is built, so its first tick is scheduled
  /// ahead of the prober's and the pool's.
  std::unique_ptr<control::AdmissionLimiter> limiter_;
  Route route_;
  std::unique_ptr<lb::RetryBudget> retry_budget_;

  net::BoundedQueue<Work> backlog_;
  sim::SlotTable<Work> jobs_;
  sim::SlotTable<Attempt> attempts_;
  control::CoDelController codel_;
  control::OverloadStats ostats_;
  int workers_busy_ = 0;
  std::uint64_t served_ = 0;
  std::uint64_t retries_ = 0;
  std::uint64_t retry_successes_ = 0;
  std::uint64_t attempts_abandoned_ = 0;
  std::uint64_t first_attempts_ = 0;
  std::uint64_t retries_suppressed_ = 0;
  bool retry_suppressed_ = false;
  bool recovery_shed_ = false;
  obs::TraceCollector* trace_events_ = nullptr;
  metrics::GaugeSeries* queue_series_ = nullptr;
};

}  // namespace ntier::server
