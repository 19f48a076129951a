#pragma once

#include <cstdint>
#include <string>

#include "experiment/config.h"
#include "experiment/recovery_tracker.h"
#include "experiment/summary.h"
#include "millib/fault_plan.h"
#include "sim/time.h"

namespace ntier::experiment {

/// The sustaining loops that keep a system in the degraded basin after the
/// trigger that pushed it there has cleared (the defining property of a
/// metastable failure state). Each kind pairs a *vulnerable* configuration
/// (the loop armed) with a *hardened* one (the loop broken by design), so a
/// bench can show the same trigger producing O(drain) recovery in one and
/// >= 10x-trigger degradation in the other.
enum class MetastableKind : std::uint8_t {
  /// Front-end retry storm: an impatient front end (attempt_timeout) plus
  /// effectively unbudgeted retries with near-zero backoff. The trigger
  /// inflates service time past the attempt timeout, every abandoned
  /// attempt keeps burning backend CPU *and* re-arrives as a retry, and the
  /// amplified attempt load keeps latency above the timeout after the
  /// trigger clears. Hardened twin: two attempts on a 10% budget — same
  /// impatience, amplification capped below the drain threshold.
  kRetryStorm,
  /// Cache stampede: single-flight coalescing disabled and a short TTL. An
  /// invalidation storm empties the hot set; every miss stampedes the KV
  /// tier independently, the slow fills expire before the next wave, and
  /// the hit ratio never climbs back.
  kCacheStampede,
  /// Missing bulkhead: an oversized AJP endpoint pool under the same
  /// impatient retries admits unbounded concurrent attempts, so the
  /// backends' standing queues keep every attempt slower than the abandon
  /// clock forever. Hardened twin: a tight pool whose backpressure caps
  /// in-flight work low enough that responses beat the abandonment timer.
  kPoolExhaustion,
};

std::string to_string(MetastableKind k);

/// One metastability scenario: trigger, loop, and the two toggles the bench
/// sweeps (vulnerable vs hardened, recovery off vs on).
struct MetastableOptions {
  MetastableKind kind = MetastableKind::kRetryStorm;
  /// Arm the sustaining loop (true) or use the hardened config (false).
  bool vulnerable = true;
  /// Run with the recovery orchestration layer active.
  bool recovery = false;
  std::uint64_t seed = 42;
  sim::SimTime duration = sim::SimTime::seconds(40);
  sim::SimTime warmup = sim::SimTime::seconds(3);
  /// The trigger: a short fleet-wide gray fault (one spec per Tomcat, so the
  /// ignition cannot be dodged by routing around a single worker; an
  /// invalidation storm for the cache kind), cleared well before the run
  /// ends so the post-clear basin is observable.
  sim::SimTime trigger_start = sim::SimTime::seconds(10);
  sim::SimTime trigger_duration = sim::SimTime::seconds(2);

  std::string label() const;
};

/// What one scenario run yields: the usual run digest (with what the
/// recovery loop did, zeros when recovery was off) and the time-to-baseline
/// measurement against the trigger.
struct MetastableResult {
  std::string label;
  millib::FaultSpec trigger;
  RunSummary summary;
  RecoveryReport report;
  bool recovery_enabled = false;
};

/// Build the full ExperimentConfig for a scenario — exposed separately so
/// tests and the CLI can tweak fields before running.
ExperimentConfig metastable_config(const MetastableOptions& opt);

/// The trigger spec `metastable_config` schedules (for reports/tests).
millib::FaultSpec metastable_trigger(const MetastableOptions& opt);

/// Build, run, summarize and measure one scenario.
MetastableResult run_metastable(const MetastableOptions& opt);

}  // namespace ntier::experiment
