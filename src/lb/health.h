#pragma once

#include <cstdint>
#include <memory>

#include "probe/probe_pool.h"
#include "sim/simulation.h"
#include "sim/slot_table.h"
#include "sim/time.h"

namespace ntier::lb {

class LoadBalancer;

/// How often the health prober probes each worker.
inline constexpr sim::SimTime kProbeInterval = sim::SimTime::millis(100);

/// Active health-probe schedule (in the spirit of Prequal's probing and
/// HAProxy's health checks). Each worker is probed every kProbeInterval; a
/// probe that has not answered within `timeout` counts as failed — which is
/// exactly what makes probing catch a *millibottleneck*: a stalled CPU
/// cannot answer a ping any faster than it can answer a request.
struct ProberConfig {
  bool enabled = false;
  sim::SimTime timeout = sim::SimTime::millis(30);
};

/// EWMA weight of each probe observation on a worker's health score (also
/// applied when the breaker itself is disabled, for observability).
inline constexpr double kHealthEwmaAlpha = 0.3;
/// Health below this opens the breaker (worker leaves rotation).
inline constexpr double kBreakerTripThreshold = 0.5;
/// Trial requests admitted half-open; one failure re-opens immediately.
inline constexpr int kHalfOpenTrials = 3;

/// Probe-driven circuit breaker. The stock mod_jk state machine only learns
/// about a sick worker from *in-band* acquisition failures — by which time
/// requests are already parked behind it. The breaker trips a worker out of
/// rotation from probe evidence instead, and re-admits it through half-open
/// trial requests.
struct BreakerConfig {
  bool enabled = false;
  /// Minimum open time before a successful probe moves to half-open.
  sim::SimTime open_duration = sim::SimTime::millis(500);
};

/// Probes every worker of one balancer on a fixed cadence and feeds the
/// outcomes into `LoadBalancer::report_probe`. The probe transport is
/// supplied by the server layer, because only it knows what a probe
/// physically is (a link round trip plus a trivial amount of backend CPU,
/// failing fast when the backend is down). It is the load-probe pool's
/// transport; the prober reads only `ok` and ignores the load values.
class HealthProber {
 public:
  /// done(ok, ...) must eventually fire unless the backend is gone; the
  /// prober's own timeout covers the never-answers case.
  HealthProber(sim::Simulation& simu, LoadBalancer& lb,
               probe::ProbePool::Transport probe, ProberConfig config);

  HealthProber(const HealthProber&) = delete;
  HealthProber& operator=(const HealthProber&) = delete;

  const ProberConfig& config() const { return config_; }
  std::uint64_t probes_sent() const { return sent_; }
  std::uint64_t probes_timed_out() const { return timed_out_; }

 private:
  /// A probe awaiting its answer or its timeout, whichever runs first; the
  /// loser finds a stale handle and does nothing.
  struct Pending {
    int worker = -1;
    sim::SimTime sent_at;
  };
  using PendingHandle = sim::SlotTable<Pending>::Handle;

  void fire(int worker);
  /// Settle a pending probe; false when it was already settled.
  bool settle(PendingHandle h, Pending* out);

  sim::Simulation& sim_;
  LoadBalancer& lb_;
  probe::ProbePool::Transport probe_;
  ProberConfig config_;
  std::uint64_t sent_ = 0;
  std::uint64_t timed_out_ = 0;
  sim::SlotTable<Pending> pending_;
};

}  // namespace ntier::lb
