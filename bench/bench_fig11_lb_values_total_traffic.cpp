// Figure 11 (a-b): the same lb_value pathology under total_traffic — the
// candidate experiencing the millibottleneck keeps the lowest lb_value
// (byte counters only advance on completions, which its stall suppresses).
#include "bench_common.h"

using namespace ntier;
using namespace ntier::bench;

int main(int argc, char** argv) {
  const auto opt = BenchOptions::parse(argc, argv);
  header("Figure 11", "lb_value traces under total_traffic");

  auto e = run_experiment(opt,
      cluster_config(opt, PolicyKind::kTotalTraffic, MechanismKind::kBlocking));
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

  const auto& bal = e->balancer_series(0);
  std::cout << "\n(b) lb_value (Apache1) relative to the window minimum "
               "(units: KB exchanged):\n  "
            << std::setw(9) << "t(s)";
  for (int t = 0; t < e->num_tomcats(); ++t)
    std::cout << std::setw(10) << ("tomcat" + std::to_string(t + 1));
  std::cout << "   (min-holder)\n";
  int stalled_is_min = 0, windows_in_stall = 0;
  for (sim::SimTime t = zoom0; t < zoom1; t += w) {
    const auto i = static_cast<std::size_t>(t.ns() / w.ns());
    double mn = 1e300;
    int mn_t = -1;
    std::vector<double> vals;
    for (int k = 0; k < e->num_tomcats(); ++k) {
      const double v = bal.lb_value[k].max(i);
      vals.push_back(v);
      if (v < mn) {
        mn = v;
        mn_t = k;
      }
    }
    std::cout << "  " << std::fixed << std::setprecision(2) << std::setw(7)
              << t.to_seconds() << "s";
    for (double v : vals)
      std::cout << std::setw(10) << std::setprecision(0) << (v - mn) / 1000.0;
    std::cout << "   tomcat" << mn_t + 1 << "\n";
    if (t >= start && t < end) {
      ++windows_in_stall;
      if (mn_t == tomcat) ++stalled_is_min;
    }
  }

  std::cout << "\n";
  paper_vs_measured("stalled candidate holds the lowest lb_value",
                    "for the whole stall",
                    std::to_string(stalled_is_min) + "/" +
                        std::to_string(windows_in_stall) + " stall windows");
  return 0;
}
