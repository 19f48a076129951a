#pragma once

// CoDel ("controlled delay", Nichols & Jacobson, CACM 2012) adapted from
// packet queues to request queues. The controller watches the *sojourn time*
// of dequeued items: once sojourn has exceeded kCoDelTarget continuously for
// kCoDelInterval, it enters a dropping state and sheds on dequeue with the
// control-law spacing drop_next += interval / sqrt(drop_count), which backs
// the queue down to target delay without the global synchronisation a hard
// length cap causes. This is what lets a standing accept backlog built
// during a pdflush stall drain instead of serving every stale request.
//
// Deterministic by construction — pure arithmetic on SimTime, no RNG.

#include <cmath>
#include <cstdint>

#include "control/overload.h"
#include "sim/time.h"

namespace ntier::control {

/// Acceptable sojourn time: shedding starts once it has been exceeded for a
/// whole interval.
inline constexpr sim::SimTime kCoDelTarget = sim::SimTime::millis(20);
/// Grace period above target before the first drop, and the initial drop
/// spacing of the control law.
inline constexpr sim::SimTime kCoDelInterval = sim::SimTime::millis(100);

class CoDelController {
 public:
  /// Called on every dequeue with the item's enqueue time; true means
  /// "shed this item". The caller decides what shedding means (here: a
  /// failed response back to the client without occupying a worker).
  bool should_drop(sim::SimTime enqueued, sim::SimTime now) {
    const sim::SimTime sojourn = now - enqueued;
    if (sojourn < kCoDelTarget) {
      // Below target: leave the dropping state and restart the clock.
      first_above_ = sim::SimTime::zero();
      dropping_ = false;
      return false;
    }
    if (first_above_ == sim::SimTime::zero()) {
      // First sojourn above target: arm, but give the queue one interval
      // to recover on its own before shedding anything.
      first_above_ = now + kCoDelInterval;
      return false;
    }
    if (!dropping_) {
      if (now < first_above_) return false;  // not above target long enough
      dropping_ = true;
      drop_count_ = 1;
      drop_next_ = control_law(now);
      ++drops_;
      return true;
    }
    if (now >= drop_next_) {
      ++drop_count_;
      drop_next_ = control_law(now);
      ++drops_;
      return true;
    }
    return false;
  }

  bool dropping() const { return dropping_; }
  std::uint64_t drops() const { return drops_; }

 private:
  sim::SimTime control_law(sim::SimTime now) const {
    return now + sim::SimTime::from_seconds(
                     kCoDelInterval.to_seconds() /
                     std::sqrt(static_cast<double>(drop_count_)));
  }

  sim::SimTime first_above_;  // when sojourn first crossed target (+interval)
  sim::SimTime drop_next_;    // next scheduled drop while in dropping state
  bool dropping_ = false;
  std::uint64_t drop_count_ = 0;  // drops this dropping episode (control law)
  std::uint64_t drops_ = 0;       // lifetime total
};

}  // namespace ntier::control
