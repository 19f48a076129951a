#pragma once

#include <cstdint>
#include <string>

#include "sim/time.h"

namespace ntier::lb {

/// The 3-state model mod_jk assumes for each backend (paper §IV-A).
/// The paper's point is that a server inside a millibottleneck fits none of
/// these: it is *unavailable* for tens–hundreds of ms yet the balancer keeps
/// it Available.
enum class WorkerState : std::uint8_t {
  kAvailable,  // able to process requests
  kBusy,       // all connections in use; retried after a recovery interval
  kError,      // deemed failed; retried after a (much longer) interval
};

std::string to_string(WorkerState s);

/// Per-backend bookkeeping held by one balancer instance (one per Apache,
/// as in mod_jk — the four Apaches each keep their own lb_values).
struct WorkerRecord {
  int tomcat_id = -1;

  WorkerState state = WorkerState::kAvailable;
  /// When a Busy/Error worker becomes eligible again (lazy recovery).
  sim::SimTime state_until;
  /// Consecutive endpoint-acquisition failures; escalates Busy -> Error.
  int consecutive_failures = 0;

  /// The policy-maintained ranking value; lowest-ranked Available worker is
  /// picked (mod_jk's normalised lb_value).
  double lb_value = 0;

  // -- probe-driven health (lb/health.h) -------------------------------------
  /// EWMA of probe outcomes in [0, 1]; 1.0 = every recent probe succeeded.
  double health = 1.0;
  /// RTT of the most recent probe (timed-out probes report the timeout).
  double probe_rtt_ms = 0;
  std::uint64_t probes = 0;
  std::uint64_t probe_failures = 0;
  /// Circuit breaker: while open the worker is out of rotation regardless of
  /// its mod_jk state; half_open_left > 0 admits trial requests.
  bool breaker_open = false;
  sim::SimTime breaker_until;
  int half_open_left = 0;
  std::uint64_t breaker_trips = 0;
  /// Flap hysteresis: a trip within the flap window of the last one
  /// escalates the open dwell (gray faults pass probes, fail data).
  sim::SimTime breaker_last_trip;
  int flap_streak = 0;              // consecutive trips inside the window
  std::uint64_t breaker_flaps = 0;  // trips that counted as flaps

  // -- statistics ------------------------------------------------------------
  std::uint64_t assigned = 0;    // endpoint acquired & request sent
  std::uint64_t completed = 0;   // responses received
  std::uint64_t acquire_failures = 0;
  /// Requests sent and not yet answered.
  int outstanding = 0;
  /// Requests *committed* to this backend: selected as candidate and not yet
  /// answered (includes workers still blocked inside get_endpoint). This is
  /// the quantity the paper plots as the per-Tomcat queue: under the
  /// blocking mechanism it climbs far beyond `outstanding`.
  int committed = 0;
};

}  // namespace ntier::lb
