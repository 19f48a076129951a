// Figure 13 (a-b): under current_load a millibottleneck leaves only a small
// queue bump (<40 requests in the paper) on the affected Tomcat, and
// Apache1's workload distribution shows all requests going to the healthy
// Tomcats for the duration of the stall.
#include "bench_common.h"

using namespace ntier;
using namespace ntier::bench;

int main(int argc, char** argv) {
  const auto opt = BenchOptions::parse(argc, argv);
  header("Figure 13", "workload distribution under current_load");

  auto e = run_experiment(opt,
      cluster_config(opt, PolicyKind::kCurrentLoad, MechanismKind::kBlocking));
  const auto w = experiment::kMetricWindow;

  int tomcat = 0;
  sim::SimTime start, end;
  if (!first_flush(*e, tomcat, start, end)) {
    std::cout << "no millibottleneck observed — nothing to plot\n";
    return 1;
  }
  std::cout << "\nmillibottleneck on tomcat" << tomcat + 1 << " at "
            << start.to_string() << ".." << end.to_string() << "\n\n";
  const auto zoom0 = start - sim::SimTime::millis(300);
  const auto zoom1 = end + sim::SimTime::millis(500);

  std::cout << "(a) per-Tomcat committed queue (zoom):\n";
  double stalled_peak = 0;
  for (int t = 0; t < e->num_tomcats(); ++t) {
    const auto q =
        experiment::slice(e->tomcat_committed_series(t), w, zoom0, zoom1);
    experiment::print_panel(std::cout, "tomcat" + std::to_string(t + 1), q);
    if (t == tomcat) stalled_peak = experiment::max_of(q);
  }
  std::cout << "\n(b) ";
  print_distribution(*e, zoom0, zoom1, sim::SimTime::millis(100), tomcat);

  std::cout << "\n";
  paper_vs_measured("stalled Tomcat queue bump", "<40 requests",
                    std::to_string(stalled_peak));
  paper_vs_measured("requests during the stall",
                    "all routed to Tomcats without millibottlenecks",
                    "see distribution table");
  return 0;
}
