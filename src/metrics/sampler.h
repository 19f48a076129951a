#pragma once

#include <functional>
#include <utility>

#include "metrics/time_series.h"
#include "sim/simulation.h"

namespace ntier::metrics {

/// Runs a callback once per fixed interval, handing it the start of the
/// window that just elapsed. Used for fine-grained CPU-utilisation and
/// iowait plots (the paper samples at 50 ms granularity): the callback
/// probes and records whatever it owns.
///
/// A tick firing at t = k·interval measures the interval that just elapsed,
/// so it is given window k-1's start — which also means the tick firing
/// exactly at the end of a run lands in the run's final window instead of an
/// empty one past it. Destroying the sampler cancels the pending tick.
class PeriodicSampler {
 public:
  PeriodicSampler(sim::Simulation& simu, sim::SimTime interval,
                  std::function<void(sim::SimTime window_start)> on_window)
      : sim_(simu),
        interval_(checked_window(interval)),
        on_window_(std::move(on_window)) {
    arm();
  }

  PeriodicSampler(const PeriodicSampler&) = delete;
  PeriodicSampler& operator=(const PeriodicSampler&) = delete;

  ~PeriodicSampler() { sim_.cancel(pending_); }

 private:
  void arm() {
    pending_ = sim_.after(interval_, [this] {
      on_window_(sim_.now() - interval_);
      arm();
    });
  }

  sim::EventId pending_ = sim::kInvalidEventId;

  sim::Simulation& sim_;
  sim::SimTime interval_;
  std::function<void(sim::SimTime)> on_window_;
};

}  // namespace ntier::metrics
