#pragma once

#include <memory>
#include <vector>

#include "lb/health.h"
#include "lb/load_balancer.h"
#include "net/link.h"
#include "obs/trace.h"
#include "probe/probe_pool.h"
#include "proto/request.h"
#include "sim/simulation.h"
#include "sim/slot_table.h"

namespace ntier::server {

/// CPU demand of a backend answering one health or load probe: tiny, but on
/// the real run queue, so a stalled CPU delays the answer past the prober's
/// or the pool's timeout.
inline constexpr sim::SimTime kProbeDemand = sim::SimTime::micros(20);

/// What a route needs of the server behind each of its workers: a load
/// probe, and the load the server reports on its responses. TomcatServer and
/// MySqlServer are the two backends.
class RouteBackend {
 public:
  /// Answer a health or load probe: done(ok, rif, latency_ms) after a
  /// kProbeDemand CPU job on the backend.
  virtual void probe_load(probe::ProbePool::ReplyFn done) = 0;
  /// Requests in flight and recent latency (ms) as this backend reports
  /// them; a response carries both back to the balancer.
  virtual double reported_rif() const = 0;
  virtual double reported_latency_ms() const = 0;

 protected:
  ~RouteBackend() = default;
};

/// One balanced hop: the balancer that picks a backend, the link to the
/// backends, and the optional health prober and load-probe pool with their
/// one probe transport. An Apache routes to its Tomcats through one; a
/// MySQL-mode DbRouter routes to its replicas through another. Prequal
/// probes per hop and does not care which tier it serves, so neither does
/// this class. Forwarding the request itself stays with the owning server.
class Route {
 public:
  /// Builds the balancer (which forks the simulation RNG), then the prober
  /// when `prober.enabled`, then the probe pool (which forks it again) when
  /// `probe.enabled`, bound to the policy when the policy is probe-aware.
  Route(sim::Simulation& simu, std::vector<RouteBackend*> backends,
        std::unique_ptr<lb::LbPolicy> policy,
        std::unique_ptr<lb::EndpointAcquirer> acquirer,
        lb::BalancerConfig balancer, const lb::ProberConfig& prober,
        const probe::ProbeConfig& probe);

  Route(const Route&) = delete;
  Route& operator=(const Route&) = delete;

  int size() const { return static_cast<int>(backends_.size()); }
  RouteBackend& backend(int i) {
    return *backends_[static_cast<std::size_t>(i)];
  }
  lb::LoadBalancer& balancer() { return balancer_; }
  const lb::LoadBalancer& balancer() const { return balancer_; }
  /// Null unless the prober was enabled.
  const lb::HealthProber* prober() const { return prober_.get(); }
  /// Null unless the probe pool was enabled.
  const probe::ProbePool* probe_pool() const { return pool_.get(); }
  /// The link to the backends (both directions), exposed for the owner's
  /// request hops and for fault injection.
  net::Link& link() { return link_; }

  /// The probe transport of the prober and the pool: a link hop to backend
  /// `worker`, its probe CPU job, and a link hop back. A probe meets the
  /// same stalls a request does, so a millibottleneck delays the answer
  /// past the prober's or the pool's timeout.
  void probe(int worker, probe::ProbePool::ReplyFn done);

  /// A response from backend `idx` for `req` is back: release the endpoint,
  /// then pool the load report the response carries (Prequal's
  /// probe-on-response mode). A gray-degraded backend reports its frozen
  /// values here too.
  void on_reply(int idx, const proto::RequestRef& req);

  /// Attach the cross-tier event collector to the balancer and the pool,
  /// tagged with the owning server's `node` (null disables).
  void set_trace(obs::TraceCollector* trace, int node);

 private:
  sim::Simulation& sim_;
  std::vector<RouteBackend*> backends_;
  net::Link link_;
  lb::LoadBalancer balancer_;
  std::unique_ptr<lb::HealthProber> prober_;
  std::unique_ptr<probe::ProbePool> pool_;
  /// One probe on its round trip: `done` waits here while the hops capture
  /// only the record's handle, and the backend's answer is parked in it for
  /// the return hop.
  struct Trip {
    probe::ProbePool::ReplyFn done;
    int worker = -1;
    bool ok = false;
    double rif = 0.0;
    double latency_ms = 0.0;
  };
  sim::SlotTable<Trip> trips_;
};

}  // namespace ntier::server
