#include "server/route.h"

namespace ntier::server {

Route::Route(sim::Simulation& simu, std::vector<RouteBackend*> backends,
             std::unique_ptr<lb::LbPolicy> policy,
             std::unique_ptr<lb::EndpointAcquirer> acquirer,
             lb::BalancerConfig balancer, const lb::ProberConfig& prober,
             const probe::ProbeConfig& probe)
    : sim_(simu),
      backends_(std::move(backends)),
      link_(net::kLinkLatency),
      balancer_(simu, size(), std::move(policy), std::move(acquirer),
                std::move(balancer)) {
  const auto transport = [this](int w, probe::ProbePool::ReplyFn done) {
    this->probe(w, std::move(done));
  };
  if (prober.enabled)
    prober_ = std::make_unique<lb::HealthProber>(simu, balancer_, transport,
                                                 prober);
  if (probe.enabled) {
    pool_ = std::make_unique<probe::ProbePool>(simu, size(), transport, probe);
    // Snapshot this balancer's own in-flight count when a reply is pooled so
    // policies can drift-correct the global RIF between probe ticks.
    pool_->set_local_load([this](int w) {
      return static_cast<double>(balancer_.record(w).outstanding);
    });
    balancer_.attach_probes(pool_.get());
  }
}

void Route::probe(int worker, probe::ProbePool::ReplyFn done) {
  const auto h = trips_.insert({std::move(done), worker});
  link_.deliver(sim_, [this, h] {
    backend(trips_[h].worker).probe_load(
        [this, h](bool ok, double rif, double lat_ms) {
          Trip& t = trips_[h];
          t.ok = ok;
          t.rif = rif;
          t.latency_ms = lat_ms;
          link_.deliver(sim_, [this, h] {
            const auto back = trips_.take(h);
            back.done(back.ok, back.rif, back.latency_ms);
          });
        });
  });
}

void Route::on_reply(int idx, const proto::RequestRef& req) {
  balancer_.on_response(idx, req);
  if (pool_) {
    const RouteBackend& b = backend(idx);
    pool_->observe(idx, b.reported_rif(), b.reported_latency_ms());
  }
}

void Route::set_trace(obs::TraceCollector* trace, int node) {
  balancer_.set_trace(trace, node);
  if (pool_) pool_->set_trace(trace, node);
}

}  // namespace ntier::server
