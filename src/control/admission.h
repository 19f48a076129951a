#pragma once

// Adaptive admission control: an AIMD concurrency limiter in the style of
// gradient/Vegas limiters (and TCP itself). The tier admits at most `limit`
// concurrent requests; every `interval` the limit adapts to the worst queue
// delay observed in the window — additive increase while the queue is
// healthy, multiplicative decrease the moment delay crosses the threshold.
// During a pdflush stall the observed delay explodes within one interval,
// the limit collapses towards kMinLimit, and excess work is rejected with a
// retriable 503 *before* it parks a worker thread — the exact opposite of
// the paper's funnel, where every tier keeps queueing work it cannot finish.
//
// Brownout (Klein et al., ICSE 2014) rides on the same limit: priority p is
// admitted only while in_flight < limit * kBrownoutFraction[p], so
// low-priority interactions hit the wall first as the limiter clamps down.

#include <algorithm>
#include <cstdint>

#include "control/overload.h"
#include "obs/trace.h"
#include "proto/request.h"
#include "sim/simulation.h"
#include "sim/time.h"

namespace ntier::control {

/// How often the limit adapts (and the delay window resets).
inline constexpr sim::SimTime kAdmissionInterval = sim::SimTime::millis(100);
/// Queue delay above this trips a multiplicative decrease.
inline constexpr sim::SimTime kDelayThreshold = sim::SimTime::millis(25);
inline constexpr double kDecreaseFactor = 0.7;  // limit *= factor on congestion
inline constexpr double kIncrease = 4.0;  // limit += increase per quiet interval
inline constexpr double kMinLimit = 8.0;  // never starve the tier completely
/// Brownout admit fractions per priority class (0 = high). Priority p is
/// admitted while in_flight < limit * fraction[p], so low-priority work hits
/// the wall first as the limiter clamps down.
inline constexpr double kBrownoutFraction[3] = {1.0, 0.92, 0.75};

class AdmissionLimiter {
 public:
  /// `initial_limit` is the tier's nominal concurrency (Apache max_clients,
  /// Tomcat max_threads); the limit adapts within [kMinLimit, initial].
  AdmissionLimiter(sim::Simulation& sim, double initial_limit, bool brownout)
      : sim_(sim),
        max_limit_(initial_limit),
        limit_(initial_limit),
        brownout_(brownout) {}

  /// Hook for kLimitUpdate events (tier/node identify the emitting server).
  void set_trace(obs::TraceCollector* trace, obs::Tier tier, int node) {
    trace_ = trace;
    tier_ = tier;
    node_ = node;
  }

  /// Starts the recurring AIMD tick. Call once after construction.
  void start() { schedule_tick(); }

  /// Tries to admit one request of the given priority class. On success the
  /// caller owes a release() when the request's response fires.
  bool try_admit(std::uint8_t priority) {
    const double frac = admit_fraction(priority);
    if (static_cast<double>(in_flight_) < limit_ * frac) {
      ++in_flight_;
      ++admitted_;
      return true;
    }
    ++rejected_;
    // Would the full limit have taken it? Then only the brownout fraction
    // stood in the way — attribute the shed accordingly.
    last_rejection_ = (frac < 1.0 &&
                       static_cast<double>(in_flight_) < limit_)
                          ? proto::ShedReason::kBrownout
                          : proto::ShedReason::kAdmission;
    return false;
  }

  void release() {
    if (in_flight_ > 0) --in_flight_;
  }

  /// Feeds the congestion signal: the queueing delay a request experienced
  /// before a worker picked it up (0 for fast-path admissions).
  void observe_delay(sim::SimTime queue_delay) {
    if (queue_delay > window_max_delay_) window_max_delay_ = queue_delay;
  }

  double limit() const { return limit_; }
  std::uint64_t in_flight() const { return in_flight_; }
  std::uint64_t admitted() const { return admitted_; }
  std::uint64_t rejected() const { return rejected_; }
  std::uint64_t decreases() const { return decreases_; }
  std::uint64_t increases() const { return increases_; }
  /// Why the most recent try_admit failed (admission vs brownout).
  proto::ShedReason last_rejection() const { return last_rejection_; }

 private:
  double admit_fraction(std::uint8_t priority) const {
    if (!brownout_) return 1.0;
    const int p = priority > 2 ? 2 : priority;
    return kBrownoutFraction[p];
  }

  void schedule_tick() {
    sim_.after(kAdmissionInterval, [this] {
      tick();
      schedule_tick();
    });
  }

  void tick() {
    const double before = limit_;
    if (window_max_delay_ > kDelayThreshold) {
      limit_ = std::max(kMinLimit, limit_ * kDecreaseFactor);
      if (limit_ < before) ++decreases_;
    } else {
      limit_ = std::min(max_limit_, limit_ + kIncrease);
      if (limit_ > before) ++increases_;
    }
    if (limit_ != before) {
      NTIER_TRACE_EVENT(trace_, sim_.now(), obs::EventKind::kLimitUpdate,
                        tier_, node_, /*worker=*/-1, /*request=*/0,
                        /*value=*/limit_, /*aux=*/limit_ > before ? 1 : -1);
    }
    window_max_delay_ = sim::SimTime::zero();
  }

  sim::Simulation& sim_;
  double max_limit_;
  double limit_;
  bool brownout_;

  std::uint64_t in_flight_ = 0;
  sim::SimTime window_max_delay_;
  proto::ShedReason last_rejection_ = proto::ShedReason::kAdmission;

  std::uint64_t admitted_ = 0;
  std::uint64_t rejected_ = 0;
  std::uint64_t increases_ = 0;
  std::uint64_t decreases_ = 0;

  obs::TraceCollector* trace_ = nullptr;
  obs::Tier tier_ = obs::Tier::kApache;
  int node_ = -1;
};

}  // namespace ntier::control
