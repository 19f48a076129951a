// Figure 9 (a-b): with the modified get_endpoint, a millibottleneck still
// produces a (much smaller) queue spike on the affected Tomcat, but Apache1's
// workload distribution shows requests routed to the healthy Tomcats for the
// whole stall.
#include "bench_common.h"

using namespace ntier;
using namespace ntier::bench;

int main(int argc, char** argv) {
  const auto opt = BenchOptions::parse(argc, argv);
  header("Figure 9",
         "workload distribution under total_request + modified get_endpoint");

  auto e = run_experiment(opt, cluster_config(opt, PolicyKind::kTotalRequest,
                                         MechanismKind::kNonBlocking));
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
  std::vector<std::vector<double>> cols;
  for (int t = 0; t < e->num_tomcats(); ++t) {
    const auto q =
        experiment::slice(e->tomcat_committed_series(t), w, zoom0, zoom1);
    experiment::print_panel(std::cout, "tomcat" + std::to_string(t + 1), q);
    cols.push_back(q);
  }
  std::cout << "\n(b) ";
  print_distribution(*e, zoom0, zoom1, sim::SimTime::millis(100), tomcat);

  const double stalled_peak = experiment::max_of(
      experiment::slice(e->tomcat_committed_series(tomcat), w, start, end + w));
  std::cout << "\n";
  paper_vs_measured("stalled Tomcat queue peak",
                    "~200 (1/4 of the stock policy's)",
                    std::to_string(stalled_peak));
  paper_vs_measured("requests during the stall",
                    "all routed to Tomcats without the millibottleneck",
                    "see distribution table");
  maybe_csv(opt, "fig09_committed.csv", w,
            {"tomcat1", "tomcat2", "tomcat3", "tomcat4"}, cols);
  return 0;
}
