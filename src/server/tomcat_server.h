#pragma once

#include <cstdint>
#include <memory>

#include "control/admission.h"
#include "control/overload.h"
#include "obs/trace.h"
#include "os/node.h"
#include "proto/request.h"
#include "server/db_router.h"
#include "server/route.h"
#include "sim/callback.h"
#include "sim/ring.h"
#include "sim/simulation.h"
#include "sim/slot_table.h"

namespace ntier::server {

/// AJP connector backlog. Not the drop site in the paper (the Apache-side
/// endpoint pool caps in-flight below this), but bounded for realism.
inline constexpr std::size_t kConnectorBacklog = 1024;

struct TomcatConfig {
  /// Servlet thread pool (paper Table III: maxThreads 210).
  int max_threads = 210;
  /// End-to-end overload control: per-Tomcat AIMD admission limiter
  /// (rejecting with a retriable 503 at submit) and expired-work shedding
  /// at the worker-queue pickup (both off by default).
  control::OverloadConfig overload;
};

/// Application tier. Each request: servlet CPU work, `db_queries` sequential
/// MySQL round trips through the DbRouter (bounded connection pools, one per
/// replica), then a log write that dirties the node's page cache — the fuel
/// for pdflush's millibottlenecks (§III-B: the dirty pages "mainly are
/// Tomcat logs").
class TomcatServer final : public RouteBackend {
 public:
  using RespondFn = sim::Callback<void(const proto::RequestRef&)>;

  TomcatServer(sim::Simulation& simu, os::Node& node, int id, DbRouter& db,
               TomcatConfig config = {});

  TomcatServer(const TomcatServer&) = delete;
  TomcatServer& operator=(const TomcatServer&) = delete;

  /// Deliver a request over an (already-acquired) AJP connection. `respond`
  /// fires at this server once processing finishes; the caller adds the
  /// return-link latency. Returns false on connector-backlog overflow or
  /// while crashed.
  bool submit(const proto::RequestRef& req, RespondFn respond);

  /// Answer a health or load probe: refused instantly while crashed,
  /// otherwise a tiny CPU job whose completion time reflects the run-queue
  /// depth (a capacity-stalled CPU answers late — which is the point). The
  /// reply reports requests-in-flight at answer time plus the recent
  /// service-latency EWMA — the state Prequal-style policies rank on; the
  /// health prober reads only `ok`.
  void probe_load(probe::ProbePool::ReplyFn done) override;

  /// Gray fault: inflate real request service time by 1/(1-severity) while
  /// the probe path stays fast AND the load values reported to probes and
  /// piggybacked replies are frozen at their pre-fault snapshot — the node
  /// looks healthy to HealthProber, the circuit breaker and prequal alike.
  void set_gray_degraded(double severity);
  void clear_gray_degraded() { gray_demand_factor_ = 1.0; }
  bool gray_degraded() const { return gray_demand_factor_ > 1.0; }
  /// Requests whose service ran at inflated demand (chaos accounting).
  std::uint64_t gray_inflated() const { return gray_inflated_; }
  /// The requests-in-flight value this node *reports* (frozen under a gray
  /// fault; truthful otherwise). Probe and piggyback paths must use these,
  /// never resident() or the latency EWMA directly.
  double reported_rif() const override {
    return gray_degraded() ? gray_frozen_rif_ : static_cast<double>(resident_);
  }
  double reported_latency_ms() const override {
    return gray_degraded() ? gray_frozen_latency_ms_ : latency_ewma_ms_;
  }

  /// Fault injection: a crashed Tomcat refuses new submits (the Apache sees
  /// a connect failure on an endpoint it already holds) while in-flight work
  /// drains normally — preserving request conservation.
  void crash() { crashed_ = true; }
  void restart() { crashed_ = false; }
  bool crashed() const { return crashed_; }
  /// Chaos invariant counter: accepted submits while crashed — must stay 0.
  std::uint64_t crashed_accepts() const { return crashed_accepts_; }

  /// Requests physically resident in this Tomcat (connector queue + threads).
  int resident() const { return resident_; }

  std::uint64_t served() const { return served_; }
  std::uint64_t connector_drops() const { return connector_drops_; }
  int threads_busy() const { return threads_busy_; }

  /// Shed/expired accounting for this Tomcat (see control::OverloadStats).
  const control::OverloadStats& overload_stats() const { return ostats_; }

  /// Attach the cross-tier event collector (null disables). Emits backend
  /// queue / service start / service end events with tier=kTomcat, node=id.
  void set_trace(obs::TraceCollector* trace) {
    trace_events_ = trace;
    if (limiter_) limiter_->set_trace(trace, obs::Tier::kTomcat, id_);
  }

 private:
  struct Work {
    proto::RequestRef req;
    RespondFn respond;
    sim::SimTime arrived;
  };
  /// A servlet thread's request, held in `threads_` from pickup to
  /// response; every continuation on the way captures only its handle.
  using ThreadHandle = sim::SlotTable<Work>::Handle;
  void dispatch();
  void run(ThreadHandle h);
  /// Issue the next of the `remaining` DB round trips, then complete().
  void db_round_trips(ThreadHandle h, int remaining);
  void complete(ThreadHandle h);
  bool expired(const proto::RequestRef& req) const {
    return req->deadline != sim::SimTime::zero() && sim_.now() > req->deadline;
  }
  /// Shed a queued request at worker pickup: a failed response without
  /// occupying a servlet thread or touching the DB tier.
  void shed_queued(Work w, proto::ShedReason reason);

  sim::Simulation& sim_;
  os::Node& node_;
  int id_;
  DbRouter& db_;
  TomcatConfig config_;

  sim::Ring<Work> connector_queue_;
  /// Probes waiting on their CPU job; the job captures only the handle.
  sim::SlotTable<probe::ProbePool::ReplyFn> load_probes_;
  sim::SlotTable<Work> threads_;
  std::unique_ptr<control::AdmissionLimiter> limiter_;
  control::OverloadStats ostats_;
  int threads_busy_ = 0;
  int resident_ = 0;
  bool crashed_ = false;
  std::uint64_t served_ = 0;
  std::uint64_t connector_drops_ = 0;
  std::uint64_t crashed_accepts_ = 0;
  double latency_ewma_ms_ = 0.0;
  double gray_demand_factor_ = 1.0;   // > 1 while a gray fault is applied
  double gray_frozen_rif_ = 0.0;      // reported load, frozen at fault onset
  double gray_frozen_latency_ms_ = 0.0;
  std::uint64_t gray_inflated_ = 0;
  obs::TraceCollector* trace_events_ = nullptr;
};

}  // namespace ntier::server
