#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "lb/endpoint.h"
#include "lb/health.h"
#include "lb/policy.h"
#include "lb/worker_index.h"
#include "lb/worker_record.h"
#include "metrics/time_series.h"
#include "obs/trace.h"
#include "proto/request.h"
#include "sim/callback.h"
#include "sim/simulation.h"
#include "sim/slot_table.h"

namespace ntier::lb {

/// Balancer tunables (mod_jk worker properties plus the remedy knobs).
struct BalancerConfig {
  /// AJP connections per (Apache, Tomcat) pair. The paper's Apache runs two
  /// worker-MPM children with connection_pool_size 25 each, so one Apache
  /// can hold 50 connections to each Tomcat.
  std::size_t endpoint_pool_size = 50;
  /// How long a Busy worker is skipped before being retried.
  sim::SimTime busy_recovery = sim::SimTime::millis(100);
  /// Consecutive Busy *episodes* (not individual waiter failures) before a
  /// worker escalates to Error. Transient millibottlenecks resolve within a
  /// couple of episodes; only a genuinely dead backend accumulates more.
  int failures_to_error = 5;
  /// How long an Error worker is skipped (mod_jk `retry`, default 60 s).
  sim::SimTime error_recovery = sim::SimTime::seconds(60);
  BlockingAcquirer::Params blocking;

  /// Honour Request::session_route (mod_jk sticky sessions): a request
  /// carrying a route goes back to that worker whenever it is eligible.
  bool sticky_sessions = false;
  /// mod_jk sticky_session_force: fail (503) instead of falling back to the
  /// policy when the routed worker cannot take the request.
  bool sticky_force = false;

  /// Probe-driven circuit breaker (see lb/health.h). Probe outcomes arrive
  /// via report_probe; with breaker.enabled a sick worker is tripped out of
  /// rotation and re-admitted through half-open trial requests.
  BreakerConfig breaker;
};

/// mod_jk's two-level scheduler, one instance per Apache.
///
/// Upper level: the policy ranks workers by lb_value. Lower level: the
/// acquirer obtains a free endpoint from the chosen worker's pool. The
/// *interaction* of the two levels under a millibottleneck is the paper's
/// subject: with the stock blocking acquirer, a stalled worker keeps its
/// (minimal) lb_value and its Available state for the whole 300 ms poll, so
/// every concurrent assignment funnels into it.
class LoadBalancer {
 public:
  LoadBalancer(sim::Simulation& simu, int num_workers,
               std::unique_ptr<LbPolicy> policy,
               std::unique_ptr<EndpointAcquirer> acquirer,
               BalancerConfig config = {});

  LoadBalancer(const LoadBalancer&) = delete;
  LoadBalancer& operator=(const LoadBalancer&) = delete;

  /// Select a backend and acquire an endpoint for `req`. `done(tomcat)` is
  /// called — possibly after simulated polling time — with the chosen worker
  /// index, or -1 when every worker was tried and none yielded an endpoint
  /// (the request fails with a balancer error, as mod_jk returns 503).
  void assign(const proto::RequestRef& req, sim::Callback<void(int)> done);

  /// The response for `req` arrived from worker `idx`: release the endpoint
  /// and run the policy's completion hook.
  void on_response(int idx, const proto::RequestRef& req);

  /// Out-of-band failure evidence for `idx` (e.g. the backend refused a
  /// request after the endpoint was acquired). Feeds the same Busy/Error
  /// escalation as an endpoint-acquisition failure, and re-opens the breaker
  /// if the worker was half-open.
  void report_failure(int idx);

  /// A health-probe outcome for `idx` (called by HealthProber). Updates the
  /// worker's EWMA health score and drives the circuit breaker:
  /// trip when health < kBreakerTripThreshold, then — after open_duration —
  /// a successful probe moves the worker to half-open with kHalfOpenTrials
  /// trial requests.
  void report_probe(int idx, bool ok, sim::SimTime rtt);

  /// Recovery intervention: force-close every open breaker and clear flap
  /// state. Used at episode step-down (after queues drain) so the fleet
  /// re-enters rotation together instead of through staggered half-opens.
  /// Returns the number of breakers that were open or half-open.
  int reset_breakers();

  // -- introspection ---------------------------------------------------------
  int num_workers() const { return static_cast<int>(records_.size()); }
  const WorkerRecord& record(int idx) const {
    return records_[static_cast<std::size_t>(idx)];
  }
  const EndpointPool& pool(int idx) const {
    return pools_[static_cast<std::size_t>(idx)];
  }
  /// Mutable pool access for fault injection (pool leaks, crash drains).
  EndpointPool& mutable_pool(int idx) {
    return pools_[static_cast<std::size_t>(idx)];
  }
  LbPolicy& policy() { return *policy_; }

  /// Bind a probe pool to a probe-aware policy (kPowerOfD / kPrequal).
  /// Returns false — and leaves the pool unused — for every other policy,
  /// which keeps probing strictly additive to the existing policy family.
  bool attach_probes(probe::ProbePool* pool) { return policy_->bind(pool); }
  const BalancerConfig& config() const { return config_; }

  std::uint64_t balancer_errors() const { return balancer_errors_; }
  std::uint64_t sticky_hits() const { return sticky_hits_; }
  /// Total breaker open transitions across all workers.
  std::uint64_t breaker_trips() const;

  /// Record the figures' raw per-worker series: the lb_value gauge, the
  /// committed-queue gauge and one sample per assignment. Each span holds one
  /// entry per worker, or is empty (off). The caller owns the series and
  /// finishes the gauges; attach before traffic flows.
  void set_series(std::span<metrics::GaugeSeries> lb_value,
                  std::span<metrics::GaugeSeries> committed,
                  std::span<metrics::TimeSeries> assignments);

  /// Attach the cross-tier event collector (null disables). Balancer events
  /// are emitted with tier=kBalancer, node=`apache_id`, worker=candidate
  /// index: get_endpoint attempt/poll/timeout/skip, endpoint acquire/release,
  /// lb_value updates and breaker transitions.
  void set_trace(obs::TraceCollector* trace, int apache_id) {
    trace_events_ = trace;
    trace_node_ = apache_id;
  }

 private:
  /// One in-progress assign(): the request and its continuation. Which
  /// workers it already tried lives in `attempted_`, `words_` 64-bit words
  /// per slot, so retrying a candidate allocates nothing.
  struct AssignContext {
    proto::RequestRef req;
    sim::Callback<void(int)> done;
  };
  using AssignHandle = sim::SlotTable<AssignContext>::Handle;

  /// Lazy Busy/Error recovery plus eligibility filtering.
  bool eligible(WorkerRecord& rec);
  void mark_failure(WorkerRecord& rec);
  /// Trip the breaker with flap-aware dwell escalation.
  void open_breaker(WorkerRecord& rec);
  void trace_event(obs::EventKind kind, int worker, std::uint64_t request,
                   double value = 0.0, std::int32_t aux = 0);
  void try_next(AssignHandle h);
  /// Settle assign `h` with `idx` (-1 = balancer error): free the context,
  /// then run its continuation.
  void settle(AssignHandle h, int idx);
  std::uint64_t* attempted(AssignHandle h) {
    return &attempted_[sim::SlotTable<AssignContext>::slot_of(h) * words_];
  }
  void set_committed(int idx, int delta);
  void trace_lb_value(int idx);

  sim::Simulation& sim_;
  std::unique_ptr<LbPolicy> policy_;
  std::unique_ptr<EndpointAcquirer> acquirer_;
  BalancerConfig config_;
  std::vector<WorkerRecord> records_;
  /// In-rotation bitset and lb_value tournament tree over records_. Every
  /// write to records_[i].state, .breaker_open or .lb_value is followed by
  /// index_.touch(i).
  WorkerIndex index_;
  std::vector<EndpointPool> pools_;
  sim::Rng rng_;
  sim::SlotTable<AssignContext> assigns_;
  std::size_t words_ = 1;                // attempted-bitset words per assign
  std::vector<std::uint64_t> attempted_;  // by assign slot
  std::uint64_t balancer_errors_ = 0;
  std::uint64_t sticky_hits_ = 0;
  obs::TraceCollector* trace_events_ = nullptr;
  int trace_node_ = -1;

  std::span<metrics::GaugeSeries> lb_value_series_;
  std::span<metrics::GaugeSeries> committed_series_;
  std::span<metrics::TimeSeries> assignment_series_;
};

}  // namespace ntier::lb
