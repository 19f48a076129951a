#include "lb/health.h"

#include "lb/load_balancer.h"

namespace ntier::lb {

HealthProber::HealthProber(sim::Simulation& simu, LoadBalancer& lb,
                           ProbeFn probe, ProberConfig config)
    : sim_(simu), lb_(lb), probe_(std::move(probe)), config_(config) {
  // Stagger the workers' probe phases across one interval so the probes do
  // not land on every backend in the same instant.
  const int n = lb_.num_workers();
  for (int w = 0; w < n; ++w) {
    sim_.after(kProbeInterval * (w + 1) / n,
               [this, w] { fire(w); });
  }
}

void HealthProber::fire(int worker) {
  ++sent_;
  struct ProbeState {
    bool settled = false;
  };
  auto st = std::make_shared<ProbeState>();
  const sim::SimTime t0 = sim_.now();
  probe_(worker, [this, st, worker, t0](bool ok) {
    if (st->settled) return;  // already counted as a timeout
    st->settled = true;
    lb_.report_probe(worker, ok, sim_.now() - t0);
  });
  sim_.after(config_.timeout, [this, st, worker] {
    if (st->settled) return;
    st->settled = true;
    ++timed_out_;
    lb_.report_probe(worker, false, config_.timeout);
  });
  sim_.after(kProbeInterval, [this, worker] { fire(worker); });
}

}  // namespace ntier::lb
