#include "recovery/orchestrator.h"

#include <algorithm>

namespace ntier::recovery {

namespace {

/// EWMA weight of healthy-tick observations on the learned baseline.
constexpr double kBaselineAlpha = 0.05;
/// Consecutive degraded ticks before an episode is declared (entry
/// hysteresis: one slow tick is a millibottleneck, not a failure state).
constexpr int kEnterTicks = 3;
/// Consecutive healthy ticks before the episode steps down (exit
/// hysteresis: guards against re-declaring on the first wobble).
constexpr int kExitTicks = 8;
/// Retry suppression trips when the per-tick retry-to-first-attempt ratio
/// exceeds kRetryRatioOn, and lifts below kRetryRatioOff (the gap is the
/// intervention's own hysteresis band).
constexpr double kRetryRatioOn = 0.25;
constexpr double kRetryRatioOff = 0.10;
/// Hard shedding trips when the committed-queue depth exceeds kShedQueueOn x
/// its baseline, and lifts once the queue drains below kShedQueueOff x
/// baseline (the drain watermark).
constexpr double kShedQueueOn = 4.0;
constexpr double kShedQueueOff = 1.5;

}  // namespace

const char* to_string(RecoveryStage s) {
  switch (s) {
    case RecoveryStage::kRetrySuppression: return "retry_suppression";
    case RecoveryStage::kHardShed: return "hard_shed";
    case RecoveryStage::kRefillGate: return "refill_gate";
    case RecoveryStage::kBreakerReset: return "breaker_reset";
  }
  return "?";
}

RecoveryOrchestrator::RecoveryOrchestrator(sim::Simulation& simu,
                                           RecoveryConfig config,
                                           RecoverySignals signals,
                                           RecoveryActions actions)
    : sim_(simu),
      config_(config),
      signals_(std::move(signals)),
      actions_(std::move(actions)) {}

void RecoveryOrchestrator::start() {
  if (started_ || !config_.enabled) return;
  started_ = true;
  if (signals_.retries) last_retries_ = signals_.retries();
  if (signals_.first_attempts) last_first_attempts_ = signals_.first_attempts();
  sim_.after(kTick, [this] { tick(); });
}

void RecoveryOrchestrator::observe(const obs::TraceEvent& e) {
  // Only completed-OK responses feed the latency window: failures have no
  // meaningful response time, and sheds are the orchestrator's own doing.
  if (e.kind != obs::EventKind::kClientDone || e.aux != 0) return;
  win_latency_sum_ms_ += e.value;
  ++win_completions_;
}

void RecoveryOrchestrator::set_stage(RecoveryStage stage, bool on,
                                     double level) {
  NTIER_TRACE_EVENT(trace_, sim_.now(), obs::EventKind::kRecoveryIntervention,
                    obs::Tier::kBalancer, -1, static_cast<int>(stage),
                    /*request=*/0, level, on ? +1 : -1);
}

void RecoveryOrchestrator::enter_episode(double ratio) {
  episode_active_ = true;
  healthy_streak_ = 0;
  ++stats_.episodes;
  NTIER_TRACE_EVENT(trace_, sim_.now(), obs::EventKind::kRecoveryEpisode,
                    obs::Tier::kBalancer, -1, -1, /*request=*/0, ratio,
                    /*aux=*/+1);
}

void RecoveryOrchestrator::exit_episode() {
  episode_active_ = false;
  degraded_streak_ = 0;
  // Step-down: lift every intervention together, then close whatever
  // breakers the episode left open so the fleet re-enters rotation as one.
  if (retry_suppressed_) {
    retry_suppressed_ = false;
    if (actions_.suppress_retries) actions_.suppress_retries(false);
    set_stage(RecoveryStage::kRetrySuppression, false, 0);
  }
  if (shedding_) {
    shedding_ = false;
    if (actions_.hard_shed) actions_.hard_shed(false);
    set_stage(RecoveryStage::kHardShed, false, 0);
  }
  if (refill_gated_) {
    refill_gated_ = false;
    if (actions_.gate_refills) actions_.gate_refills(false);
    set_stage(RecoveryStage::kRefillGate, false, 0);
  }
  if (actions_.reset_breakers) {
    const int reset = actions_.reset_breakers();
    stats_.breaker_resets += static_cast<std::uint64_t>(reset);
    if (reset > 0)
      set_stage(RecoveryStage::kBreakerReset, true,
                static_cast<double>(reset));
  }
  NTIER_TRACE_EVENT(trace_, sim_.now(), obs::EventKind::kRecoveryEpisode,
                    obs::Tier::kBalancer, -1, -1, /*request=*/0, 0.0,
                    /*aux=*/-1);
}

void RecoveryOrchestrator::tick() {
  ++stats_.ticks;
  const double latency_ms =
      win_completions_ ? win_latency_sum_ms_ /
                             static_cast<double>(win_completions_)
                       : 0.0;
  const double completions = static_cast<double>(win_completions_);
  win_latency_sum_ms_ = 0;
  win_completions_ = 0;

  const double queue = signals_.queue_depth ? signals_.queue_depth() : 0.0;
  const std::uint64_t retries_now = signals_.retries ? signals_.retries() : 0;
  const std::uint64_t firsts_now =
      signals_.first_attempts ? signals_.first_attempts() : 0;
  const std::uint64_t d_retries = retries_now - last_retries_;
  const std::uint64_t d_firsts = firsts_now - last_first_attempts_;
  last_retries_ = retries_now;
  last_first_attempts_ = firsts_now;
  const double retry_ratio =
      d_firsts ? static_cast<double>(d_retries) / static_cast<double>(d_firsts)
               : (d_retries ? static_cast<double>(d_retries) : 0.0);

  const bool warming = sim_.now() < config_.warmup;

  // Degradation judgement against the learned baseline.
  double ratio = 0;
  bool degraded = false;
  if (baseline_ready_ && base_latency_ms_ > 0) {
    ratio = latency_ms / base_latency_ms_;
    stats_.max_latency_ratio = std::max(stats_.max_latency_ratio, ratio);
    const bool slow = ratio > kDegradeRatio;
    const bool starved =
        base_completions_ > 0 &&
        completions < base_completions_ / kDegradeRatio &&
        (latency_ms > base_latency_ms_ || completions == 0);
    degraded = slow || starved;
  }
  if (degraded) ++stats_.degraded_ticks;

  // Baseline learning: healthy, post-warmup, completion-bearing ticks only —
  // the baseline must describe the steady state the system should return to,
  // never the degraded state it is in.
  if (!warming && !degraded && !episode_active_ && completions > 0) {
    if (!baseline_ready_) {
      base_latency_ms_ = latency_ms;
      base_completions_ = completions;
      base_queue_ = queue;
      baseline_ready_ = true;
    } else {
      base_latency_ms_ += kBaselineAlpha * (latency_ms - base_latency_ms_);
      base_completions_ +=
          kBaselineAlpha * (completions - base_completions_);
      base_queue_ += kBaselineAlpha * (queue - base_queue_);
    }
  }

  // Episode state machine with two-sided hysteresis.
  if (!episode_active_) {
    degraded_streak_ = degraded ? degraded_streak_ + 1 : 0;
    if (degraded_streak_ >= kEnterTicks) enter_episode(ratio);
  } else {
    ++stats_.episode_ticks;
    healthy_streak_ = degraded ? 0 : healthy_streak_ + 1;
    if (healthy_streak_ >= kExitTicks) {
      exit_episode();
    } else {
      // -- staged interventions, each with its own on/off band ----------------
      if (!retry_suppressed_ && retry_ratio >= kRetryRatioOn) {
        retry_suppressed_ = true;
        ++stats_.retry_suppressions;
        if (actions_.suppress_retries) actions_.suppress_retries(true);
        set_stage(RecoveryStage::kRetrySuppression, true, retry_ratio);
      } else if (retry_suppressed_ && retry_ratio <= kRetryRatioOff) {
        retry_suppressed_ = false;
        if (actions_.suppress_retries) actions_.suppress_retries(false);
        set_stage(RecoveryStage::kRetrySuppression, false, retry_ratio);
      }

      const double queue_base = std::max(base_queue_, 1.0);
      if (!shedding_ && queue >= kShedQueueOn * queue_base) {
        shedding_ = true;
        ++stats_.hard_sheds;
        if (actions_.hard_shed) actions_.hard_shed(true);
        set_stage(RecoveryStage::kHardShed, true, queue);
      } else if (shedding_ && queue <= kShedQueueOff * queue_base) {
        // Queues drained below the watermark: stop shedding before the
        // episode itself ends (the episode may still be latency-degraded).
        shedding_ = false;
        if (actions_.hard_shed) actions_.hard_shed(false);
        set_stage(RecoveryStage::kHardShed, false, queue);
      }

      if (!refill_gated_ && actions_.gate_refills) {
        // The refill gate is cheap and strictly smoothing: apply it for the
        // whole episode rather than waiting for a stampede signature.
        refill_gated_ = true;
        ++stats_.refill_gates;
        actions_.gate_refills(true);
        set_stage(RecoveryStage::kRefillGate, true, 0);
      }
    }
  }

  sim_.after(kTick, [this] { tick(); });
}

}  // namespace ntier::recovery
