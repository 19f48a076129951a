// Figure 5: average CPU usage among component servers under total_request
// and total_traffic. Expected shape: every server at moderate utilisation —
// the paper's point is that VLRT requests appear even though the highest
// average CPU is only 45 %.
#include "bench_common.h"

using namespace ntier;
using namespace ntier::bench;

int main(int argc, char** argv) {
  const auto opt = BenchOptions::parse(argc, argv);
  header("Figure 5", "average CPU usage per server (both stock policies)");

  for (const auto policy :
       {PolicyKind::kTotalRequest, PolicyKind::kTotalTraffic}) {
    auto e = run_experiment(opt,
        cluster_config(opt, policy, MechanismKind::kBlocking));
    std::cout << "\n[" << lb::to_string(policy) << "]\n  server        mean CPU%\n";
    double peak = 0;
    for (int i = 0; i < e->num_apaches(); ++i) {
      const double u = 100 * e->mean_cpu(e->cpu_series(obs::Tier::kApache, i));
      peak = std::max(peak, u);
      std::cout << "  apache" << i + 1 << "        " << std::fixed
                << std::setprecision(1) << u << "\n";
    }
    for (int i = 0; i < e->num_tomcats(); ++i) {
      const double u = 100 * e->mean_cpu(e->cpu_series(obs::Tier::kTomcat, i));
      peak = std::max(peak, u);
      std::cout << "  tomcat" << i + 1 << "        " << std::fixed
                << std::setprecision(1) << u << "\n";
    }
    const double mysql = 100 * e->mean_cpu(e->cpu_series(obs::Tier::kMysql, 0));
    peak = std::max(peak, mysql);
    std::cout << "  mysql          " << std::fixed << std::setprecision(1)
              << mysql << "\n";
    paper_vs_measured("highest average CPU among servers", "45 %",
                      std::to_string(peak) + " %");
  }
  return 0;
}
