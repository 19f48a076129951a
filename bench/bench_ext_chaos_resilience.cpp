// Extension: chaos fault injection vs the resilience layer. A Tomcat crash
// mid-run is the fault the paper's mechanisms never face: the stock blocking
// mechanism keeps assigning to the dead worker (its mod_jk state only decays
// via per-request failures), so clients see balancer errors and the long
// tail explodes. With the resilience layer (active prober -> EWMA health ->
// circuit breaker, plus budgeted retries) the crash is detected in a few
// probe intervals, the worker is tripped out of rotation, and stranded
// requests are retried elsewhere: errors drop to ~zero and P99.9 stays
// bounded.
#include "bench_common.h"

#include "experiment/chaos.h"
#include "millib/fault_plan.h"

using namespace ntier;
using namespace ntier::bench;

namespace {

experiment::ChaosRunResult crash_run(const BenchOptions& opt, bool resilient,
                                     SimTime traffic) {
  ExperimentConfig c;
  c.label = resilient ? "crash_resilient" : "crash_stock";
  c.seed = opt.seed;
  c.num_apaches = 2;
  c.num_tomcats = 3;
  c.num_clients = opt.full ? 2000 : 400;
  c.think_mean = SimTime::millis(200);
  c.warmup = SimTime::millis(500);
  c.policy = PolicyKind::kTotalRequest;
  c.mechanism = MechanismKind::kBlocking;
  c.tomcat_millibottlenecks = false;  // the crash is the only disturbance
  c.tracing = false;
  millib::FaultSpec crash;
  crash.kind = millib::FaultKind::kCrash;
  crash.worker = 0;
  crash.start = traffic / 3;
  crash.duration = traffic / 3;
  c.fault_plan = millib::FaultPlan::single(crash);
  if (resilient) c.enable_resilience();
  return experiment::run_chaos(std::move(c), traffic, SimTime::seconds(6));
}

void print_row(const std::string& label,
               const experiment::ChaosRunResult& r) {
  std::cout << "  " << std::left << std::setw(18) << label << std::right
            << std::setw(10) << r.invariants.completed << std::setw(9)
            << r.invariants.failed << std::setw(9) << r.invariants.dropped
            << std::setw(10) << std::fixed << std::setprecision(1)
            << r.summary.p99_ms << std::setw(11) << r.summary.p999_ms
            << std::setw(8) << r.summary.breaker_trips << std::setw(9)
            << r.summary.retries << std::setw(8) << r.summary.health_probes_sent
            << "\n";
}

}  // namespace

int main(int argc, char** argv) {
  const auto opt = BenchOptions::parse(argc, argv);
  header("Extension: chaos + resilience",
         "Tomcat crash under stock blocking vs prober+breaker+retry budget");

  const SimTime traffic =
      opt.full ? SimTime::seconds(60) : SimTime::seconds(12);
  std::cout << "\n  one Tomcat (of 3) crashes for the middle third of a "
            << traffic.to_string() << " run\n\n  " << std::left
            << std::setw(18) << "variant" << std::right << std::setw(10)
            << "complete" << std::setw(9) << "failed" << std::setw(9)
            << "dropped" << std::setw(10) << "p99_ms" << std::setw(11)
            << "p99.9_ms" << std::setw(8) << "trips" << std::setw(9)
            << "retries" << std::setw(8) << "probes" << "\n";

  const auto stock = crash_run(opt, /*resilient=*/false, traffic);
  print_row("stock blocking", stock);
  const auto resilient = crash_run(opt, /*resilient=*/true, traffic);
  print_row("resilient", resilient);

  std::cout << "\n  fault trace:\n" << resilient.fault_trace;
  std::cout << "\n  invariants (both runs must hold all three):\n    stock:     "
            << (stock.invariants.ok() ? "ok" : stock.invariants.to_string())
            << "\n    resilient: "
            << (resilient.invariants.ok() ? "ok"
                                          : resilient.invariants.to_string())
            << "\n";

  maybe_csv(opt, "ext_chaos_resilience.csv", SimTime::seconds(1),
            {"stock_failed", "resilient_failed"},
            {{static_cast<double>(stock.invariants.failed)},
             {static_cast<double>(resilient.invariants.failed)}});

  std::cout
      << "\n(the stock mechanism only learns about the dead worker from "
         "request\n failures, so every probe of the error-state decay window "
         "costs real\n client errors; the prober pays that cost with 200 "
         "microsecond probe\n jobs instead, and the retry budget turns the "
         "residual failures into\n successful second attempts)\n";
  return stock.invariants.ok() && resilient.invariants.ok() ? 0 : 1;
}
