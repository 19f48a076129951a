// Extension: gray failures, metastable basins, and recovery orchestration.
//
// Three regimes, one per verdict line:
//   (a) Differential observability. The same 10x slowdown is injected twice
//       on one Tomcat: once as kCapacityStall (the probe path slows with the
//       data path, so the prober times out, the breaker opens, and the
//       balancer routes around it) and once as kGrayDataPath (probes and
//       piggybacked load reports keep answering at healthy-node latency
//       while real requests run 10x slow). Every detector the resilience
//       layer has — prober, breaker, prequal's in-band reports — is evaded
//       by construction, so the gray run's latency inflation dwarfs the
//       detectable run's.
//   (b) Metastability. A short trigger is fired into a *vulnerable* config
//       (retry storm / non-coalescing cache stampede / tiny endpoint pool)
//       and into its *hardened* twin. The hardened run returns to its own
//       pre-trigger baseline in O(drain); the vulnerable run's sustaining
//       loop keeps it degraded >= 10x the trigger duration after the fault
//       has cleared — usually until the run ends.
//   (c) Recovery orchestration. The same vulnerable configs run again with
//       the src/recovery control loop enabled: it declares the episode,
//       suppresses retries / sheds hard / gates cache refills, and steps
//       down once its learned baseline returns — turning "degraded forever"
//       into a bounded time-to-baseline.
#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include "bench_common.h"
#include "experiment/metastable.h"
#include "millib/fault_plan.h"

using namespace ntier;
using namespace ntier::bench;

namespace {

enum class Fault { kNone, kStall, kGray };

const char* name(Fault f) {
  switch (f) {
    case Fault::kNone: return "no fault";
    case Fault::kStall: return "detectable stall";
    case Fault::kGray: return "gray data-path";
  }
  return "?";
}

/// The evasion testbed: resilience on (prober + breaker + budgeted retries),
/// organic millibottlenecks off, one long 10x fault on Tomcat 0 covering
/// half the measured span so mean latency integrates the whole episode.
ExperimentConfig evasion_config(const BenchOptions& opt, PolicyKind policy,
                                Fault fault) {
  ExperimentConfig c = cluster_config(opt, policy, MechanismKind::kNonBlocking,
                                      /*millibottlenecks=*/false);
  c.tracing = false;  // the request log carries this section
  c.enable_resilience();
  // A tight probe deadline so the detectable stall IS detected: the probe's
  // 20 us demand shares the stalled CPU with ~200 parked requests, putting
  // its completion near 10 ms — over this deadline, while a probe on a
  // gray-degraded node (CPU healthy, only request demand inflated) stays
  // around 1 ms and sails under it.
  c.apache.prober.timeout = SimTime::millis(5);
  // A long parole: once tripped, the stalled worker stays benched for most
  // of the fault instead of being readmitted every 500 ms for three
  // half-open trials that each eat a multi-hundred-ms stalled response.
  // Neutral for the gray run — its breaker never trips.
  c.balancer.breaker.open_duration = SimTime::seconds(2);
  if (fault != Fault::kNone) {
    millib::FaultSpec spec;
    spec.kind = fault == Fault::kGray ? millib::FaultKind::kGrayDataPath
                                      : millib::FaultKind::kCapacityStall;
    spec.worker = 0;
    const SimTime span = c.duration - c.warmup;
    spec.start = c.warmup + SimTime::from_seconds(span.to_seconds() * 0.2);
    spec.duration = SimTime::from_seconds(span.to_seconds() * 0.6);
    spec.severity = 0.9;  // 10x service-time inflation either way
    c.fault_plan = millib::FaultPlan::single(spec);
  }
  c.label = std::string(name(fault)) + "/" + lb::to_string(policy);
  return c;
}

/// Scenario cell options: the shared clock of the metastable grid. Quick
/// mode shrinks the run but keeps >= 10x the trigger duration of post-clear
/// horizon, so the metastability claim stays decidable.
experiment::MetastableOptions scenario(const BenchOptions& opt,
                                       experiment::MetastableKind kind,
                                       bool vulnerable, bool recovery) {
  experiment::MetastableOptions mo;
  mo.kind = kind;
  mo.vulnerable = vulnerable;
  mo.recovery = recovery;
  mo.seed = opt.seed;
  if (opt.quick) {
    mo.duration = SimTime::seconds(22);
    mo.warmup = SimTime::seconds(3);
    mo.trigger_start = SimTime::seconds(6);
    mo.trigger_duration = SimTime::from_millis(1200);
  } else if (opt.full) {
    mo.duration = SimTime::seconds(80);
    mo.trigger_start = SimTime::seconds(15);
    mo.trigger_duration = SimTime::seconds(3);
  }
  return mo;
}

void print_scenario_row(const experiment::MetastableResult& r) {
  const auto& rep = r.report;
  std::cout << "  " << std::left << std::setw(34) << r.label << std::right
            << std::fixed << std::setprecision(1) << " base "
            << std::setw(6) << rep.baseline_latency_ms << " ms  ";
  if (rep.recovered) {
    std::cout << "recovered in " << std::setprecision(2)
              << rep.time_to_baseline_s << " s ("
              << std::setprecision(1) << rep.recovery_ratio()
              << "x trigger)";
  } else {
    std::cout << "NEVER recovered";
  }
  std::cout << ", degraded " << std::setprecision(2)
            << rep.degraded_after_clear_s << " s post-clear";
  if (r.recovery_enabled)
    std::cout << "\n    recovery: " << experiment::recovery_line(r.summary);
  std::cout << "\n";
}

}  // namespace

int main(int argc, char** argv) {
  const auto opt = BenchOptions::parse(argc, argv);
  header("Ext",
         "gray failures, metastable basins, and recovery orchestration");

  // ---- regime (a): gray faults evade every detector ------------------------
  std::cout << "\n-- regime (a): the same 10x slowdown, detectable vs gray "
               "(resilience on)\n"
            << "  " << std::setw(34) << std::left << "cell" << std::right
            << std::setw(10) << "mean_ms" << std::setw(8) << "trips"
            << std::setw(10) << "probe_to" << std::setw(10) << "gray_ops"
            << "\n";
  // Round-robin is the gated row: it has no load signal of its own, so
  // avoidance is exactly what the prober+breaker buy — the cleanest measure
  // of what a gray fault evades. Prequal rides along unscored: its
  // piggybacked reports are frozen by the gray fault too, but its local
  // outstanding-count correction partially routes around the damage, which
  // is worth printing, not gating on.
  struct EvasionPolicy {
    PolicyKind policy;
    bool gated;
  };
  const EvasionPolicy evasion_policies[] = {{PolicyKind::kRoundRobin, true},
                                            {PolicyKind::kPrequal, false}};
  double min_gap = 1e18;
  bool gray_invisible = true;   // no trips, no probe timeouts on gray runs
  bool stall_detected = true;   // the equivalent stall IS seen
  bool gray_bites = true;       // gray ops actually ran inflated
  for (const auto& [policy, gated] : evasion_policies) {
    experiment::RunSummary cells[3];
    for (const Fault fault : {Fault::kNone, Fault::kStall, Fault::kGray}) {
      experiment::RunSummary& cell = cells[static_cast<int>(fault)];
      cell = experiment::summarize(*run_experiment(
          opt, evasion_config(opt, policy, fault), /*announce=*/false));
      std::cout << "  " << std::setw(34) << std::left << cell.label
                << std::right << std::setw(10) << std::fixed
                << std::setprecision(2) << cell.mean_rt_ms << std::setw(8)
                << cell.breaker_trips << std::setw(10)
                << cell.health_probe_timeouts << std::setw(10)
                << cell.gray_inflated_ops << "\n";
    }
    const experiment::RunSummary& base = cells[static_cast<int>(Fault::kNone)];
    const experiment::RunSummary& stall =
        cells[static_cast<int>(Fault::kStall)];
    const experiment::RunSummary& gray = cells[static_cast<int>(Fault::kGray)];
    const double stall_excess =
        std::max(stall.mean_rt_ms - base.mean_rt_ms, 0.01);
    const double gray_excess = gray.mean_rt_ms - base.mean_rt_ms;
    if (gated) min_gap = std::min(min_gap, gray_excess / stall_excess);
    gray_invisible &=
        gray.breaker_trips == 0 && gray.health_probe_timeouts == 0;
    // Only the gated (signal-free) row must SEE the stall: prequal's own
    // load signals steer traffic off the stalled node before its probe
    // queue ever builds, so its prober has nothing to time out on.
    if (gated)
      stall_detected &=
          stall.breaker_trips > 0 || stall.health_probe_timeouts > 0;
    gray_bites &= gray.gray_inflated_ops > 0;
    std::cout << "  " << lb::to_string(policy)
              << ": latency excess over no-fault, gray vs detectable: "
              << std::fixed << std::setprecision(2) << gray_excess << " vs "
              << stall_excess << " ms (gap "
              << std::setprecision(1) << gray_excess / stall_excess << "x)"
              << (gated ? "" : "  [reported, not gated]") << "\n";
  }
  const bool evasion_ok =
      min_gap >= 5.0 && gray_invisible && stall_detected && gray_bites;

  // ---- regimes (b) + (c): metastable basins and recovery --------------------
  const experiment::MetastableKind kinds[] = {
      experiment::MetastableKind::kRetryStorm,
      experiment::MetastableKind::kCacheStampede,
      experiment::MetastableKind::kPoolExhaustion};
  bool hardened_ok = true;    // trigger-only runs return to baseline
  bool metastable_ok = true;  // vulnerable runs stay degraded >= 10x trigger
  bool recovery_ok = true;    // recovery-on runs return in bounded time
  double worst_vuln_ratio = 1e18;  // min over kinds of degraded/trigger
  double worst_recovery_s = 0;     // max over kinds of time-to-baseline
  for (const experiment::MetastableKind kind : kinds) {
    std::cout << "\n-- scenario: " << experiment::to_string(kind) << "\n";
    const auto hardened = experiment::run_metastable(
        scenario(opt, kind, /*vulnerable=*/false, /*recovery=*/false));
    const auto vulnerable = experiment::run_metastable(
        scenario(opt, kind, /*vulnerable=*/true, /*recovery=*/false));
    const auto recovered = experiment::run_metastable(
        scenario(opt, kind, /*vulnerable=*/true, /*recovery=*/true));
    print_scenario_row(hardened);
    print_scenario_row(vulnerable);
    print_scenario_row(recovered);

    hardened_ok &= hardened.report.recovered;
    const double trigger_s = vulnerable.report.trigger_s;
    const double vuln_ratio =
        vulnerable.report.recovered
            ? vulnerable.report.time_to_baseline_s / trigger_s
            : vulnerable.report.degraded_after_clear_s / trigger_s;
    metastable_ok &= !vulnerable.report.recovered ||
                     vulnerable.report.time_to_baseline_s >= 10.0 * trigger_s;
    worst_vuln_ratio = std::min(worst_vuln_ratio, vuln_ratio);
    recovery_ok &= recovered.report.recovered &&
                   recovered.summary.recovery_episodes > 0;
    worst_recovery_s =
        std::max(worst_recovery_s, recovered.report.time_to_baseline_s);
  }

  std::cout << "\n";
  paper_vs_measured("gray vs detectable latency gap",
                    ">= 5x (every detector evaded)",
                    std::to_string(min_gap) + "x min across policies");
  paper_vs_measured("gray-run breaker trips + probe timeouts", "0 (invisible)",
                    gray_invisible ? "0" : "> 0");
  paper_vs_measured("vulnerable degraded-to-trigger ratio",
                    ">= 10x (sustaining loop)",
                    std::to_string(worst_vuln_ratio) + "x min across kinds");
  paper_vs_measured("recovery-on time-to-baseline",
                    "bounded (< run horizon)",
                    std::to_string(worst_recovery_s) + " s max across kinds");
  std::cout << "\nverdict: gray fault "
            << (evasion_ok ? "evaded" : "FAILED to evade")
            << " prober+breaker+prequal with >= 5x latency gap (min gap "
            << std::fixed << std::setprecision(1) << min_gap << "x)\n"
            << "verdict: vulnerable config "
            << (metastable_ok && hardened_ok
                    ? "stayed degraded >= 10x trigger duration"
                    : "FAILED to stay degraded 10x trigger")
            << " after the fault cleared (hardened twin "
            << (hardened_ok ? "recovered" : "did NOT recover") << ")\n"
            << "verdict: recovery orchestration "
            << (recovery_ok ? "restored baseline in bounded time"
                            : "FAILED to restore baseline")
            << " (worst time-to-baseline " << std::setprecision(2)
            << worst_recovery_s << " s)\n"
            << "(fixed seed => byte-deterministic; run with --seed N to vary,"
               " --full for paper scale)\n";
  return evasion_ok && hardened_ok && metastable_ok && recovery_ok ? 0 : 1;
}
