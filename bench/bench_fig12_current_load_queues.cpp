// Figure 12: per-tier queued requests under the current_load policy.
// Expected shape: no huge Tomcat-tier spikes despite millibottlenecks (the
// policy diverts traffic within a handful of requests), and fewer/lower
// Apache-tier spikes because the queue-amplification push-back wave from the
// Tomcat tier disappears.
#include "bench_common.h"

using namespace ntier;
using namespace ntier::bench;

int main(int argc, char** argv) {
  const auto opt = BenchOptions::parse(argc, argv);
  header("Figure 12", "queues under the current_load policy");

  auto stock = run_experiment(opt,
      cluster_config(opt, PolicyKind::kTotalRequest, MechanismKind::kBlocking));
  auto remedy = run_experiment(opt,
      cluster_config(opt, PolicyKind::kCurrentLoad, MechanismKind::kBlocking));

  const auto w = experiment::kMetricWindow;
  std::cout << "\n[total_request, for contrast]\n";
  experiment::print_panel(std::cout, "apache tier queue", stock->apache_tier_queue());
  experiment::print_panel(std::cout, "tomcat tier queue", stock->tomcat_tier_queue());
  std::cout << "\n[current_load]\n";
  experiment::print_panel(std::cout, "apache tier queue", remedy->apache_tier_queue());
  experiment::print_panel(std::cout, "tomcat tier queue", remedy->tomcat_tier_queue());
  experiment::print_panel(std::cout, "mysql tier queue", remedy->mysql_tier_queue());

  std::cout << "\n";
  paper_vs_measured("huge Tomcat-tier spikes", "absent under current_load",
                    "peak " +
                        std::to_string(experiment::max_of(remedy->tomcat_tier_queue())) +
                        " vs stock " +
                        std::to_string(experiment::max_of(stock->tomcat_tier_queue())));
  paper_vs_measured("Apache-tier spikes", "fewer than stock policies",
                    "peak " +
                        std::to_string(experiment::max_of(remedy->apache_tier_queue())) +
                        " vs stock " +
                        std::to_string(experiment::max_of(stock->apache_tier_queue())));
  maybe_csv(opt, "fig12_queues.csv", w,
            {"apache", "tomcat", "mysql"},
            {remedy->apache_tier_queue(), remedy->tomcat_tier_queue(),
             remedy->mysql_tier_queue()});
  return 0;
}
