#include "sim/simulation.h"

#include <stdexcept>

namespace ntier::sim {

EventId Simulation::at(SimTime when, Callback<void()> fn) {
  if (when < now_) {
    throw std::logic_error("Simulation::at: scheduling in the past (" +
                           when.to_string() + " < " + now_.to_string() + ")");
  }
  return events_.push(when, std::move(fn));
}

std::uint64_t Simulation::run_until(SimTime until) {
  stop_requested_ = false;
  std::uint64_t n = 0;
  while (!events_.empty() && !stop_requested_) {
    if (events_.next_time() > until) break;
    auto [at, fn] = events_.pop();
    now_ = at;
    fn();
    ++n;
    ++executed_;
  }
  // Advance the clock to the horizon even if we drained early, so
  // back-to-back run_until calls observe monotonic time.
  if (until != SimTime::max() && now_ < until && !stop_requested_) now_ = until;
  return n;
}

}  // namespace ntier::sim
