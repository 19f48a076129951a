#pragma once

// End-to-end overload control (beyond the paper). The paper's testbed has no
// overload signal except the silent accept-queue overflow that surfaces as
// TCP retransmissions — exactly the amplifier that turns a 300 ms pdflush
// stall into multi-second VLRT requests. This subsystem adds the three
// standard counter-measures, wired through every tier:
//
//   * deadline propagation  — requests carry an absolute deadline; each tier
//     sheds already-expired work instead of executing it,
//   * adaptive admission    — an AIMD concurrency limiter at the Apache front
//     door and per-Tomcat, driven by observed queue delay, rejecting early
//     with a retriable 503 instead of parking threads,
//   * CoDel-style shedding  — standing queues drop by sojourn time so the
//     backlog built during a stall drains instead of serving stale work,
//   * priority brownout     — low-priority RUBBoS interactions are shed
//     first when the limiter saturates.
//
// Everything is deterministic (no RNG) so seeded runs stay byte-identical.

#include <cstdint>
#include <string>

#include "proto/request.h"
#include "sim/time.h"

namespace ntier::control {

/// Coarse CLI-facing selector for which counter-measures are active.
enum class OverloadMode {
  kNone = 0,   // no stamping, no enforcement (seed behaviour)
  kDeadline,   // deadline propagation + expired-work shedding only
  kAdmission,  // AIMD admission limiting (+ brownout when priorities exist)
  kCodel,      // CoDel sojourn shedding on the accept backlog only
  kFull,       // all of the above
};

const char* to_string(OverloadMode m);
/// Parses "none|deadline|admission|codel|full"; false on unknown names.
bool parse_overload_mode(const std::string& s, OverloadMode* out);

/// The complete overload-control configuration carried by ExperimentConfig
/// and copied into every tier's server config by the topology builder.
struct OverloadConfig {
  OverloadMode mode = OverloadMode::kNone;

  // Enforcement switches (derived from `mode` by make_overload, but
  // independently settable for ablations).
  bool deadlines = false;   // shed expired work at every tier
  bool admission = false;   // AIMD limiter at Apache + per-Tomcat
  bool codel = false;       // sojourn-time shedding on the accept backlog
  bool brownout = false;    // priority-aware admission fractions

  /// Stamp deadlines on requests even when `deadlines` is off, so a
  /// baseline cell reports comparable goodput (completed-within-deadline)
  /// without shedding anything.
  bool stamp_deadlines = false;

  /// Client response-time budget; the absolute deadline is
  /// client_start + deadline_budget. Zero disables stamping entirely.
  sim::SimTime deadline_budget = sim::SimTime::seconds(1);

  /// Any enforcement active (stamping alone does not count).
  bool any() const { return deadlines || admission || codel; }
};

/// Builds the enforcement switches for a CLI mode.
OverloadConfig make_overload(OverloadMode mode,
                             sim::SimTime budget = sim::SimTime::seconds(1));

/// Per-tier shed counters, aggregated into RunSummary. wasted_work_avoided_ms
/// is the service demand (CPU the tiers did NOT burn) of shed work — the
/// paper's point is that executing stale work during a stall is pure waste.
struct OverloadStats {
  std::uint64_t admission_sheds = 0;
  std::uint64_t brownout_sheds = 0;
  std::uint64_t deadline_sheds = 0;
  std::uint64_t sojourn_sheds = 0;
  std::uint64_t recovery_sheds = 0;  // recovery orchestrator hard shedding
  double wasted_work_avoided_ms = 0.0;

  /// Count one shed: mark `req` with `reason`, bump that reason's counter
  /// and add `avoided_ms`, the service demand the shed spared. Every shed
  /// site of every tier goes through here; trace emission stays with the
  /// site.
  void shed(proto::Request& req, proto::ShedReason reason, double avoided_ms);

  OverloadStats& operator+=(const OverloadStats& o) {
    admission_sheds += o.admission_sheds;
    brownout_sheds += o.brownout_sheds;
    deadline_sheds += o.deadline_sheds;
    sojourn_sheds += o.sojourn_sheds;
    recovery_sheds += o.recovery_sheds;
    wasted_work_avoided_ms += o.wasted_work_avoided_ms;
    return *this;
  }
};

/// Backend service demand of a request no Tomcat has served yet, in ms: its
/// servlet CPU plus the CPU of each of its DB queries.
inline double backend_demand_ms(const proto::Request& req) {
  return req.tomcat_demand.to_millis() +
         static_cast<double>(req.db_queries) * req.mysql_demand.to_millis();
}

}  // namespace ntier::control
