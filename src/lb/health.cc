#include "lb/health.h"

#include "lb/load_balancer.h"

namespace ntier::lb {

HealthProber::HealthProber(sim::Simulation& simu, LoadBalancer& lb,
                           probe::ProbePool::Transport probe,
                           ProberConfig config)
    : sim_(simu), lb_(lb), probe_(std::move(probe)), config_(config) {
  // Stagger the workers' probe phases across one interval so the probes do
  // not land on every backend in the same instant.
  const int n = lb_.num_workers();
  for (int w = 0; w < n; ++w) {
    sim_.after(kProbeInterval * (w + 1) / n,
               [this, w] { fire(w); });
  }
}

bool HealthProber::settle(PendingHandle h, Pending* out) {
  const Pending* p = pending_.find(h);
  if (p == nullptr) return false;
  *out = *p;
  pending_.erase(h);
  return true;
}

void HealthProber::fire(int worker) {
  ++sent_;
  const PendingHandle h = pending_.insert(Pending{worker, sim_.now()});
  probe_(worker, [this, h](bool ok, double, double) {
    Pending p;
    if (!settle(h, &p)) return;  // already counted as a timeout
    lb_.report_probe(p.worker, ok, sim_.now() - p.sent_at);
  });
  sim_.after(config_.timeout, [this, h] {
    Pending p;
    if (!settle(h, &p)) return;
    ++timed_out_;
    lb_.report_probe(p.worker, false, config_.timeout);
  });
  sim_.after(kProbeInterval, [this, worker] { fire(worker); });
}

}  // namespace ntier::lb
