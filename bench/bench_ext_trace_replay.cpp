// Extension: trace-driven workload replay. One synthetic "production day"
// (diurnal rate curve + flash crowd + Zipf data keys, compressed into the
// bench duration) is generated once, then replayed open-loop against the
// paper's cluster under several regimes:
//
//   1. baseline            total_request+blocking, millibottlenecks off
//   2. vulnerable combo    total_request+blocking, millibottlenecks on
//   3. better combo        current_load+modified,  millibottlenecks on
//   4. overload control    cell 2 + the full deadline/admission/CoDel stack
//   5. chaos               cell 2 + a seeded randomized fault schedule
//
// Because the replay is open-loop, a stalled Tomcat cannot slow the arrival
// process down the way closed-loop clients do — the day keeps coming. The
// bench checks that (a) millibottlenecks reproduce the paper's VLRTs under
// production-shaped traffic, (b) replay is byte-deterministic, and (c) the
// open-loop accounting conserves every arrival in every regime.
#include "bench_common.h"

#include "control/overload.h"
#include "millib/fault_plan.h"
#include "workload/trace.h"
#include "workload/trace_gen.h"

using namespace ntier;
using namespace ntier::bench;

namespace {

void verdict(const std::string& what, bool pass, const std::string& bound) {
  std::cout << "verdict: " << what << " -- " << (pass ? "PASS" : "FAIL")
            << " (" << bound << ")\n";
}

experiment::RunSummary run_cell(const BenchOptions& opt,
                                ExperimentConfig cfg) {
  return experiment::summarize(*run_experiment(opt, std::move(cfg)));
}

void print_row(const experiment::RunSummary& s) {
  std::cout << "  " << std::left << std::setw(26) << s.label << std::right
            << std::setw(10) << s.completed << std::setw(9) << s.dropped
            << std::setw(10) << s.replay_abandoned << std::setw(10)
            << std::fixed << std::setprecision(1) << s.mean_rt_ms
            << std::setw(10) << s.p99_ms << std::setw(11) << s.p999_ms
            << std::setw(9) << std::setprecision(2) << 100.0 * s.vlrt_fraction
            << "\n";
}

}  // namespace

int main(int argc, char** argv) {
  const auto opt = BenchOptions::parse(argc, argv);
  header("Extension",
         "trace-driven replay: one production-shaped day, five regimes");

  bool all_pass = true;

  // -- synthesize the day -----------------------------------------------------
  // Calibrated to the scaled(0.1) cluster (per-Tomcat capacity ~29k req/s
  // across 4/8/1 tiers serving ~10k rps closed-loop): the diurnal peak plus
  // the flash crowd reaches ~19k rps, loud but under nominal capacity, so
  // every VLRT in cell 2 is the millibottlenecks' doing, not raw overload.
  const ExperimentConfig proto =
      cluster_config(opt, PolicyKind::kTotalRequest, MechanismKind::kBlocking);
  const double day_s = proto.duration.to_seconds();
  workload::TraceGenSpec spec;
  spec.seed = opt.seed;
  spec.duration_s = day_s;
  spec.base_rps = 9'000;
  spec.diurnal_amplitude = 0.35;       // trough ~5.9k, peak ~12.2k rps
  spec.diurnal_period_s = 0;           // one compressed day over the run
  spec.flash_at_s = 0.55 * day_s;      // flash crowd rides the peak
  spec.flash_duration_s = 0.15 * day_s;
  spec.flash_multiplier = 1.6;         // peak * flash ~19.4k rps
  spec.session_mean = 5;
  spec.think_mean_s = 0.5;
  spec.abandon_p = 0.05;

  const workload::TraceGenerator gen(spec);
  const workload::RubbosWorkload wl(proto.workload);
  auto trace = std::make_shared<const workload::ArrivalTrace>(gen.generate(wl));
  std::cout << "\nsynthetic day: " << sim::spec_text(spec) << "\n  "
            << trace->size()
            << " arrivals over " << day_s << " s ("
            << std::fixed << std::setprecision(0)
            << static_cast<double>(trace->size()) / day_s
            << " rps mean), rich schema (Zipf keys + priorities)\n";

  // Per-second offered-rate curve (the shape the cells all share).
  {
    std::vector<double> rate;
    for (double t = 0; t < day_s; t += 1.0) rate.push_back(gen.rate_at(t));
    maybe_csv(opt, "ext_trace_replay_rate.csv", SimTime::seconds(1),
              {"offered_rps"}, {rate});
  }

  auto replay_config = [&](const std::string& label, PolicyKind policy,
                           MechanismKind mech, bool millibottlenecks) {
    ExperimentConfig c = cluster_config(opt, policy, mech, millibottlenecks);
    c.label = label;
    c.replay_trace = trace;
    c.replay_client_timeout = SimTime::seconds(8);
    return c;
  };

  // -- the five regimes -------------------------------------------------------
  std::vector<experiment::RunSummary> cells;
  cells.push_back(run_cell(opt, replay_config("replay_baseline",
                                              PolicyKind::kTotalRequest,
                                              MechanismKind::kBlocking,
                                              /*millibottlenecks=*/false)));
  ExperimentConfig vulnerable =
      replay_config("replay_total_request", PolicyKind::kTotalRequest,
                    MechanismKind::kBlocking, true);
  cells.push_back(run_cell(opt, vulnerable));
  cells.push_back(run_cell(opt, replay_config("replay_current_load",
                                              PolicyKind::kCurrentLoad,
                                              MechanismKind::kNonBlocking,
                                              true)));
  {
    ExperimentConfig c =
        replay_config("replay_overload_full", PolicyKind::kTotalRequest,
                      MechanismKind::kBlocking, true);
    c.overload = control::make_overload(control::OverloadMode::kFull,
                                        SimTime::seconds(1));
    c.overload.stamp_deadlines = true;
    cells.push_back(run_cell(opt, c));
  }
  {
    ExperimentConfig c =
        replay_config("replay_chaos", PolicyKind::kTotalRequest,
                      MechanismKind::kBlocking, true);
    millib::FaultPlanConfig fc;
    fc.initial_offset = std::max(c.warmup, SimTime::seconds(1));
    fc.horizon = std::max(fc.initial_offset + SimTime::seconds(1),
                          c.duration - fc.max_duration);
    c.fault_plan.merge(
        millib::FaultPlan::randomized(/*seed=*/1, fc, c.num_tomcats));
    cells.push_back(run_cell(opt, c));
  }

  std::cout << "\nsame recorded day, five regimes (post-warmup requests)\n\n  "
            << std::left << std::setw(26) << "regime" << std::right
            << std::setw(10) << "complete" << std::setw(9) << "dropped"
            << std::setw(10) << "abandoned" << std::setw(10) << "mean_ms"
            << std::setw(10) << "p99_ms" << std::setw(11) << "p99.9_ms"
            << std::setw(9) << "vlrt%" << "\n";
  for (const auto& c : cells) print_row(c);

  // -- verdict 1: millibottlenecks reproduce VLRTs on production traffic ------
  const double base_vlrt = cells[0].vlrt_fraction;
  const double milli_vlrt = cells[1].vlrt_fraction;
  const bool vlrt_ok = milli_vlrt > 0 && milli_vlrt >= 5.0 * base_vlrt;
  all_pass &= vlrt_ok;

  // -- verdict 2: replay is byte-deterministic --------------------------------
  // The identical config again; the whole summary (counters, histograms,
  // percentiles) must match byte for byte.
  const std::string once = cells[1].to_json_string();
  const std::string twice =
      experiment::summarize(*run_experiment(opt, vulnerable, false))
          .to_json_string();
  const bool determinism_ok = once == twice;
  all_pass &= determinism_ok;

  // -- verdict 3: open-loop conservation in every regime ----------------------
  bool conservation_ok = true;
  // in_flight is what the replayer issued and has not settled (ok,
  // dropped, failed or abandoned), so a settlement counted twice shows up
  // as more in flight than was issued.
  for (const auto& c : cells) {
    const bool issued_ok = c.issued == trace->size();
    const bool settled_ok = c.in_flight <= c.issued;
    if (!issued_ok || !settled_ok) {
      conservation_ok = false;
      std::cout << "  [conservation] " << c.label << ": issued " << c.issued
                << "/" << trace->size() << ", settled "
                << c.issued - c.in_flight << " + in-flight " << c.in_flight
                << "\n";
    }
  }
  all_pass &= conservation_ok;

  std::cout << "\n";
  {
    std::ostringstream s;
    s << "millibottleneck vlrt fraction " << std::fixed << std::setprecision(2)
      << 100.0 * milli_vlrt << "% vs baseline " << 100.0 * base_vlrt << "%";
    verdict(s.str(), vlrt_ok, ">0 and >=5x baseline required");
  }
  verdict("identical replay configs produce byte-identical summaries",
          determinism_ok, "exact match required");
  {
    std::ostringstream s;
    s << "every arrival issued and accounted for in all " << cells.size()
      << " regimes";
    verdict(s.str(), conservation_ok,
            "issued == arrivals, ok+dropped+failed+abandoned+in-flight == "
            "issued");
  }
  return all_pass ? 0 : 1;
}
