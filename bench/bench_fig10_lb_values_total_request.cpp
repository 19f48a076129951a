// Figure 10 (a-b): the policy limitation of total_request. (a) the stalled
// Tomcat's queue peak; (b) the four lb_values at Apache1: during the stall
// the stalled candidate holds the *lowest* lb_value (it is frozen while the
// healthy ones keep incrementing), which is exactly why every request is
// sent to it; during recovery it spikes to the highest.
#include "bench_common.h"

using namespace ntier;
using namespace ntier::bench;

int main(int argc, char** argv) {
  const auto opt = BenchOptions::parse(argc, argv);
  header("Figure 10", "lb_value traces under total_request");

  auto e = run_experiment(opt,
      cluster_config(opt, PolicyKind::kTotalRequest, MechanismKind::kBlocking));
  const auto w = experiment::kMetricWindow;

  int tomcat = 0;
  sim::SimTime start, end;
  if (!first_flush(*e, tomcat, start, end)) {
    std::cout << "no millibottleneck observed — nothing to plot\n";
    return 1;
  }
  const auto zoom0 = start - sim::SimTime::millis(300);
  const auto zoom1 = end + sim::SimTime::millis(700);
  std::cout << "\nmillibottleneck on tomcat" << tomcat + 1 << " at "
            << start.to_string() << ".." << end.to_string() << "\n\n";

  std::cout << "(a) committed queue of the stalled tomcat (zoom):\n";
  experiment::print_panel(
      std::cout, "tomcat" + std::to_string(tomcat + 1),
      experiment::slice(e->tomcat_committed_series(tomcat), w, zoom0, zoom1));

  // (b) lb_values at Apache1, normalised to tomcat2-style baseline: print
  // value minus the minimum across tomcats per window, as the paper plots
  // differences of cumulative counters.
  const auto& bal = e->balancer_series(0);
  std::cout << "\n(b) lb_value (Apache1), per 50 ms window, relative to the "
               "window minimum:\n  "
            << std::setw(9) << "t(s)";
  for (int t = 0; t < e->num_tomcats(); ++t)
    std::cout << std::setw(10) << ("tomcat" + std::to_string(t + 1));
  std::cout << "   (min-holder)\n";
  std::vector<std::vector<double>> csv_cols(
      static_cast<std::size_t>(e->num_tomcats()));
  int stalled_is_min = 0, windows_in_stall = 0;
  for (sim::SimTime t = zoom0; t < zoom1; t += w) {
    const auto i = static_cast<std::size_t>(t.ns() / w.ns());
    double mn = 1e300;
    int mn_t = -1;
    std::vector<double> vals;
    for (int k = 0; k < e->num_tomcats(); ++k) {
      const double v = bal.lb_value[k].max(i);
      vals.push_back(v);
      csv_cols[static_cast<std::size_t>(k)].push_back(v);
      if (v < mn) {
        mn = v;
        mn_t = k;
      }
    }
    std::cout << "  " << std::fixed << std::setprecision(2) << std::setw(7)
              << t.to_seconds() << "s";
    for (double v : vals)
      std::cout << std::setw(10) << std::setprecision(0) << (v - mn);
    std::cout << "   tomcat" << mn_t + 1 << "\n";
    if (t >= start && t < end) {
      ++windows_in_stall;
      if (mn_t == tomcat) ++stalled_is_min;
    }
  }

  std::cout << "\n";
  paper_vs_measured("stalled candidate holds the lowest lb_value",
                    "for the whole stall (phase 2)",
                    std::to_string(stalled_is_min) + "/" +
                        std::to_string(windows_in_stall) + " stall windows");
  maybe_csv(opt, "fig10_lb_values.csv", w,
            {"tomcat1", "tomcat2", "tomcat3", "tomcat4"}, csv_cols);
  return 0;
}
