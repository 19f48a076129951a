// Figure 7 (a-c): the same instability under the total_traffic policy —
// queue peak + transient CPU saturation on the stalled Tomcat, and the
// workload-distribution funnel until the millibottleneck resolves.
#include "bench_common.h"

using namespace ntier;
using namespace ntier::bench;

int main(int argc, char** argv) {
  const auto opt = BenchOptions::parse(argc, argv);
  header("Figure 7", "VLRT amplification by total_traffic instability");

  auto e = run_experiment(opt,
      cluster_config(opt, PolicyKind::kTotalTraffic, MechanismKind::kBlocking));
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
  std::cout << "\n(c) workload distribution:\n";
  print_distribution(*e, zoom0, zoom1, sim::SimTime::millis(100), tomcat);

  std::cout << "\n";
  paper_vs_measured("requests routed to the stalled candidate",
                    "all, until the millibottleneck resolves",
                    "committed peak " + std::to_string(experiment::max_of(queue)));
  paper_vs_measured("VLRT fraction (whole run)", "6.89 %",
                    std::to_string(100 * e->log().vlrt_fraction()) + " %");
  maybe_csv(opt, "fig07_zoom.csv", w, {"vlrt", "cpu", "committed"},
            {vlrt, cpu, queue});
  return 0;
}
