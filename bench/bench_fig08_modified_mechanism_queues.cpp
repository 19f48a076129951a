// Figure 8: per-tier queued requests under total_request with the modified
// (non-blocking) get_endpoint. Expected shape: Apache- and Tomcat-tier queue
// peaks far below the stock mechanism's — the paper reports a 75 % reduction
// in queued requests.
#include "bench_common.h"

using namespace ntier;
using namespace ntier::bench;

int main(int argc, char** argv) {
  const auto opt = BenchOptions::parse(argc, argv);
  header("Figure 8",
         "queues under total_request + modified get_endpoint (vs stock)");

  auto stock = run_experiment(opt,
      cluster_config(opt, PolicyKind::kTotalRequest, MechanismKind::kBlocking));
  auto fixed = run_experiment(opt, cluster_config(opt, PolicyKind::kTotalRequest,
                                             MechanismKind::kNonBlocking));

  const auto w = experiment::kMetricWindow;
  std::cout << "\n[stock blocking get_endpoint]\n";
  experiment::print_panel(std::cout, "apache tier queue", stock->apache_tier_queue());
  experiment::print_panel(std::cout, "tomcat tier queue", stock->tomcat_tier_queue());
  experiment::print_panel(std::cout, "mysql tier queue", stock->mysql_tier_queue());
  std::cout << "\n[modified get_endpoint]\n";
  experiment::print_panel(std::cout, "apache tier queue", fixed->apache_tier_queue());
  experiment::print_panel(std::cout, "tomcat tier queue", fixed->tomcat_tier_queue());
  experiment::print_panel(std::cout, "mysql tier queue", fixed->mysql_tier_queue());

  const double stock_peak = experiment::max_of(stock->apache_tier_queue()) +
                            experiment::max_of(stock->tomcat_tier_queue());
  const double fixed_peak = experiment::max_of(fixed->apache_tier_queue()) +
                            experiment::max_of(fixed->tomcat_tier_queue());
  std::cout << "\n";
  paper_vs_measured("queued-request reduction", "75 %",
                    std::to_string(100.0 * (1.0 - fixed_peak / stock_peak)) +
                        " % (peak sum)");
  maybe_csv(opt, "fig08_queues.csv", w,
            {"stock_apache", "stock_tomcat", "fixed_apache", "fixed_tomcat"},
            {stock->apache_tier_queue(), stock->tomcat_tier_queue(),
             fixed->apache_tier_queue(), fixed->tomcat_tier_queue()});
  return 0;
}
