#pragma once

#include <cstdint>
#include <functional>
#include <string>

#include "obs/trace.h"
#include "sim/simulation.h"
#include "sim/time.h"

namespace ntier::recovery {

/// The staged interventions the orchestrator can apply, in escalation order.
/// Values are stable (they ride in trace events and JSON).
enum class RecoveryStage : std::uint8_t {
  kRetrySuppression = 0,  // drop retry attempts, keep first attempts
  kHardShed,              // answered 503s until queues drain below watermark
  kRefillGate,            // jittered cache refills (stampede admission gate)
  kBreakerReset,          // step-down: close every breaker together
};

const char* to_string(RecoveryStage s);

/// Control-loop cadence. Each tick digests the completions observed since
/// the previous tick; every rule below is judged per tick.
inline constexpr sim::SimTime kTick = sim::SimTime::millis(100);
/// A tick is *degraded* when mean completion latency exceeds
/// kDegradeRatio x baseline, or throughput falls below baseline /
/// kDegradeRatio while latency is elevated.
inline constexpr double kDegradeRatio = 3.0;

/// Tunables of the recovery control loop. The loop is metastability-aware:
/// a *sustaining loop* (retry storm, cache stampede, pool exhaustion) keeps
/// the system degraded after its trigger clears, so the orchestrator judges
/// the system against its own pre-trigger baseline rather than against any
/// absolute threshold, and steps interventions down only after the baseline
/// actually returns (hysteresis on both edges). The hysteresis constants are
/// in orchestrator.cc.
struct RecoveryConfig {
  bool enabled = false;
  /// Ticks are observation-only until this much sim time has passed (the
  /// baseline must describe the healthy system, not the ramp-up).
  sim::SimTime warmup = sim::SimTime::seconds(1);
};

/// Read-only signals sampled once per tick. All cumulative counters; the
/// orchestrator differences them itself.
struct RecoverySignals {
  /// Total committed-queue depth across every balancer.
  std::function<double()> queue_depth;
  /// Cumulative retry attempts / first attempts across the front ends.
  std::function<std::uint64_t()> retries;
  std::function<std::uint64_t()> first_attempts;
};

/// Actuators. Any may be null (the stage is then skipped); each takes
/// effect immediately and is always lifted at episode step-down.
struct RecoveryActions {
  std::function<void(bool on)> suppress_retries;
  std::function<void(bool on)> hard_shed;
  std::function<void(bool on)> gate_refills;
  /// Force-close every open breaker at step-down; returns how many were
  /// open or half-open.
  std::function<int()> reset_breakers;
};

/// Everything the loop did, for RunSummary / sweeps / bench JSON. The
/// counters are jobs-invariant: they depend only on the simulated event
/// sequence, never on host parallelism.
struct RecoveryStats {
  std::uint64_t ticks = 0;
  std::uint64_t degraded_ticks = 0;
  std::uint64_t episodes = 0;
  /// Ticks spent inside a declared episode (degraded time, in tick units).
  std::uint64_t episode_ticks = 0;
  /// Per-stage application counts (a re-application after a lift counts
  /// again — flapping interventions are visible here).
  std::uint64_t retry_suppressions = 0;
  std::uint64_t hard_sheds = 0;
  std::uint64_t refill_gates = 0;
  /// Breakers force-closed across every step-down.
  std::uint64_t breaker_resets = 0;
  /// Worst observed mean-latency ratio vs baseline (diagnostics).
  double max_latency_ratio = 0;
};

/// The recovery control loop: consumes the live event stream (kClientDone
/// completions) as a TraceSink, keeps a pre-trigger baseline of latency and
/// throughput, declares sustained-degradation episodes with entry/exit
/// hysteresis, applies the staged interventions above while an episode is
/// active, and steps them down — closing breakers together — once the
/// baseline returns. Fully deterministic: ticks ride the simulation clock
/// and every decision derives from simulated observations.
class RecoveryOrchestrator : public obs::TraceSink {
 public:
  RecoveryOrchestrator(sim::Simulation& simu, RecoveryConfig config,
                       RecoverySignals signals, RecoveryActions actions);

  RecoveryOrchestrator(const RecoveryOrchestrator&) = delete;
  RecoveryOrchestrator& operator=(const RecoveryOrchestrator&) = delete;

  /// Recovery lifecycle events are emitted here (null = no tracing).
  void set_trace(obs::TraceCollector* t) { trace_ = t; }

  /// Arm the tick loop; call once before the simulation runs.
  void start();

  /// TraceSink: digests kClientDone events into the current tick's window.
  void observe(const obs::TraceEvent& e) override;

  const RecoveryConfig& config() const { return config_; }
  const RecoveryStats& stats() const { return stats_; }
  bool episode_active() const { return episode_active_; }
  bool retries_suppressed() const { return retry_suppressed_; }
  bool shedding() const { return shedding_; }
  bool refills_gated() const { return refill_gated_; }
  double baseline_latency_ms() const { return base_latency_ms_; }
  double baseline_throughput() const { return base_completions_; }

 private:
  void tick();
  void enter_episode(double ratio);
  void exit_episode();
  void set_stage(RecoveryStage stage, bool on, double level);

  sim::Simulation& sim_;
  RecoveryConfig config_;
  RecoverySignals signals_;
  RecoveryActions actions_;
  obs::TraceCollector* trace_ = nullptr;
  RecoveryStats stats_;

  // Current-tick completion window (filled by observe()).
  double win_latency_sum_ms_ = 0;
  std::uint64_t win_completions_ = 0;

  // Learned pre-trigger baseline (EWMA over healthy ticks).
  double base_latency_ms_ = 0;
  double base_completions_ = 0;
  double base_queue_ = 0;
  bool baseline_ready_ = false;

  // Cumulative-signal snapshots from the previous tick.
  std::uint64_t last_retries_ = 0;
  std::uint64_t last_first_attempts_ = 0;

  // Episode state machine.
  bool episode_active_ = false;
  int degraded_streak_ = 0;
  int healthy_streak_ = 0;

  // Intervention latches.
  bool retry_suppressed_ = false;
  bool shedding_ = false;
  bool refill_gated_ = false;

  bool started_ = false;
};

}  // namespace ntier::recovery
