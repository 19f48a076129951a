#pragma once

#include <cstdint>
#include <string>

#include "sim/callback.h"
#include "sim/event_queue.h"
#include "sim/rng.h"
#include "sim/time.h"

namespace ntier::sim {

/// The discrete-event simulation driver: a clock plus an event queue.
///
/// All model components hold a `Simulation&` and express behaviour as
/// callbacks scheduled relative to `now()`. A run is deterministic given the
/// seed: the queue breaks ties FIFO and every random draw flows from the
/// root Rng.
class Simulation {
 public:
  explicit Simulation(std::uint64_t seed = 1) : rng_(seed) {}

  Simulation(const Simulation&) = delete;
  Simulation& operator=(const Simulation&) = delete;

  SimTime now() const { return now_; }

  /// Schedule at an absolute simulated time (must be >= now()).
  EventId at(SimTime when, Callback<void()> fn);

  /// Schedule after a relative delay (>= 0).
  EventId after(SimTime delay, Callback<void()> fn) {
    return at(now_ + delay, std::move(fn));
  }

  /// Cancel a pending event; false if it already fired or was cancelled.
  bool cancel(EventId id) { return events_.cancel(id); }

  /// Run until the queue drains or the clock passes `until`, whichever comes
  /// first. Events at exactly `until` still fire. Returns the number of
  /// events executed.
  std::uint64_t run_until(SimTime until);

  /// Run until the queue is empty.
  std::uint64_t run() { return run_until(SimTime::max()); }

  /// Request that the run loop stop after the current event.
  void stop() { stop_requested_ = true; }

  bool pending() const { return !events_.empty(); }
  std::uint64_t events_executed() const { return executed_; }
  std::uint64_t events_scheduled() const { return events_.total_scheduled(); }

  /// Root random source. Components should fork() their own streams.
  Rng& rng() { return rng_; }

 private:
  EventQueue events_;
  SimTime now_;
  Rng rng_;
  std::uint64_t executed_ = 0;
  bool stop_requested_ = false;
};

}  // namespace ntier::sim
