#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "obs/trace.h"
#include "os/cpu.h"
#include "sim/simulation.h"

namespace ntier::millib {

/// A transient capacity stall injected into a CPU — the generic form of a
/// millibottleneck. The organic cause in the paper is pdflush (modelled in
/// src/os); these injectors reproduce the *other* documented causes (§III-A:
/// JVM garbage collection, DVFS, VM consolidation) for extension studies and
/// fault-injection tests.
struct StallEpisode {
  sim::SimTime start;
  sim::SimTime end;
  double severity = 0;  // fraction of capacity removed
};

struct InjectorConfig {
  /// Mean interval between stalls (exponential when jitter=true, fixed
  /// otherwise).
  sim::SimTime period = sim::SimTime::seconds(5);
  bool jitter = false;
  /// Stall length.
  sim::SimTime duration = sim::SimTime::millis(150);
  /// Capacity removed while stalled (1.0 = full freeze).
  double severity = 1.0;
  /// First stall time offset.
  sim::SimTime initial_offset = sim::SimTime::seconds(5);
};

/// Periodically steals capacity from a CpuResource and restores it.
class CapacityStallInjector {
 public:
  CapacityStallInjector(sim::Simulation& simu, os::CpuResource& cpu,
                        InjectorConfig config, std::string name = "injector");

  CapacityStallInjector(const CapacityStallInjector&) = delete;
  CapacityStallInjector& operator=(const CapacityStallInjector&) = delete;

  const std::vector<StallEpisode>& episodes() const { return episodes_; }
  const std::string& name() const { return name_; }
  bool stalled() const { return stalled_; }

  /// Attach the cross-tier event collector (null disables). Stalls are
  /// emitted as stall_start/stall_stop with value = severity.
  void set_trace(obs::TraceCollector* trace, obs::Tier tier, int node) {
    trace_events_ = trace;
    trace_tier_ = tier;
    trace_node_ = node;
  }

 private:
  void arm();
  void begin_stall();

  sim::Simulation& sim_;
  os::CpuResource& cpu_;
  InjectorConfig config_;
  std::string name_;
  sim::Rng rng_;
  bool stalled_ = false;
  double saved_factor_ = 1.0;
  obs::TraceCollector* trace_events_ = nullptr;
  obs::Tier trace_tier_ = obs::Tier::kTomcat;
  int trace_node_ = -1;
  std::vector<StallEpisode> episodes_;
};

/// JVM stop-the-world garbage collection: ~full freeze for tens of ms.
InjectorConfig gc_pause_profile(sim::SimTime period = sim::SimTime::seconds(4),
                                sim::SimTime pause = sim::SimTime::millis(80));

/// DVFS frequency-step transition: partial slowdown, short and frequent.
InjectorConfig dvfs_profile(sim::SimTime period = sim::SimTime::seconds(2),
                            sim::SimTime dip = sim::SimTime::millis(60),
                            double severity = 0.5);

/// VM consolidation interference: longer, moderate capacity loss, jittered.
InjectorConfig vm_consolidation_profile(
    sim::SimTime period = sim::SimTime::seconds(10),
    sim::SimTime span = sim::SimTime::millis(400), double severity = 0.6);

}  // namespace ntier::millib
