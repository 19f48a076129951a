#include "millib/injector.h"

#include <algorithm>

namespace ntier::millib {

CapacityStallInjector::CapacityStallInjector(sim::Simulation& simu,
                                             os::CpuResource& cpu,
                                             InjectorConfig config,
                                             std::string name)
    : sim_(simu),
      cpu_(cpu),
      config_(config),
      name_(std::move(name)),
      rng_(simu.rng().fork()) {
  sim_.after(config_.initial_offset, [this] { begin_stall(); });
}

void CapacityStallInjector::arm() {
  const sim::SimTime gap = config_.jitter
                               ? rng_.exponential_time(config_.period)
                               : config_.period;
  sim_.after(gap, [this] { begin_stall(); });
}

void CapacityStallInjector::begin_stall() {
  stalled_ = true;
  saved_factor_ = cpu_.capacity_factor();
  cpu_.set_capacity_factor(std::min(saved_factor_, 1.0 - config_.severity));
  const sim::SimTime start = sim_.now();
  NTIER_TRACE_EVENT(trace_events_, start, obs::EventKind::kStallStart,
                    trace_tier_, trace_node_, -1, 0, config_.severity);
  sim_.after(config_.duration, [this, start] {
    cpu_.set_capacity_factor(saved_factor_);
    stalled_ = false;
    episodes_.push_back(StallEpisode{start, sim_.now(), config_.severity});
    NTIER_TRACE_EVENT(trace_events_, sim_.now(), obs::EventKind::kStallStop,
                      trace_tier_, trace_node_, -1, 0, config_.severity);
    arm();
  });
}

InjectorConfig gc_pause_profile(sim::SimTime period, sim::SimTime pause) {
  InjectorConfig c;
  c.period = period;
  c.duration = pause;
  c.severity = 1.0;
  c.jitter = true;
  return c;
}

InjectorConfig dvfs_profile(sim::SimTime period, sim::SimTime dip,
                            double severity) {
  InjectorConfig c;
  c.period = period;
  c.duration = dip;
  c.severity = severity;
  c.jitter = true;
  return c;
}

InjectorConfig vm_consolidation_profile(sim::SimTime period, sim::SimTime span,
                                        double severity) {
  InjectorConfig c;
  c.period = period;
  c.duration = span;
  c.severity = severity;
  c.jitter = true;
  return c;
}

}  // namespace ntier::millib
