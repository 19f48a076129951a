// Figure 6 (a-c): the load-balancer instability under total_request.
// (a) VLRT counts per 50 ms window, (b) the stalled Tomcat's transient CPU
// saturation coinciding with its queue peak, (c) Apache1's workload
// distribution across the four phases: even -> funnel into the stalled
// Tomcat -> recovery compensation -> even again.
#include "bench_common.h"

using namespace ntier;
using namespace ntier::bench;

int main(int argc, char** argv) {
  const auto opt = BenchOptions::parse(argc, argv);
  header("Figure 6", "VLRT amplification by total_request instability");

  auto e = run_experiment(opt,
      cluster_config(opt, PolicyKind::kTotalRequest, MechanismKind::kBlocking));
  const auto w = experiment::kMetricWindow;
  const auto windows = e->num_metric_windows();

  int tomcat = 0;
  sim::SimTime start, end;
  if (!first_flush(*e, tomcat, start, end)) {
    std::cout << "no millibottleneck observed — nothing to plot\n";
    return 1;
  }
  std::cout << "\nzooming on the millibottleneck on tomcat" << tomcat + 1
            << " at " << start.to_string() << ".." << end.to_string() << "\n\n";

  const auto zoom0 = start - sim::SimTime::millis(400);
  const auto zoom1 = end + sim::SimTime::millis(800);

  const auto vlrt = experiment::slice(
      experiment::series_count(e->log().vlrt_series(), windows), w, zoom0, zoom1);
  const auto cpu = experiment::slice(
      experiment::series_avg(e->cpu_series(obs::Tier::kTomcat, tomcat), windows), w, zoom0, zoom1);
  const auto queue = experiment::slice(e->tomcat_committed_series(tomcat), w,
                                       zoom0, zoom1);

  experiment::print_panel(std::cout, "(a) VLRT / 50ms (zoom)", vlrt);
  experiment::print_panel(std::cout, "(b) tomcat CPU util (zoom)", cpu);
  experiment::print_panel(std::cout, "(b) tomcat committed queue", queue);
  std::cout << "\n(c) four phases of the instability:\n";
  print_distribution(*e, zoom0, zoom1, sim::SimTime::millis(100), tomcat);

  std::cout << "\n";
  paper_vs_measured("(a) VLRT cluster follows the stall", "yes",
                    experiment::sum_of(vlrt) > 0 ? "yes" : "no");
  paper_vs_measured("(b) CPU saturation coincides with queue peak", "yes",
                    experiment::max_of(cpu) > 0.9 ? "yes" : "no");
  paper_vs_measured("(c) requests funnel into the stalled Tomcat",
                    "all during phase 2",
                    "committed peak " +
                        std::to_string(experiment::max_of(queue)));
  maybe_csv(opt, "fig06_zoom.csv", w, {"vlrt", "cpu", "committed"},
            {vlrt, cpu, queue});
  return 0;
}
