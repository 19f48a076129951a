// Quickstart: build the paper's 4-Apache / 4-Tomcat / 1-MySQL testbed, run
// 20 simulated seconds of RUBBoS traffic with millibottlenecks enabled, and
// print the client-side latency summary.
//
//   $ ./quickstart [policy] [mechanism]
//     policy:    total_request | total_traffic | current_load (default)
//     mechanism: blocking | modified (default)
#include <cstring>
#include <iostream>

#include "experiment/experiment.h"
#include "experiment/report.h"
#include "experiment/summary.h"

using namespace ntier;

int main(int argc, char** argv) {
  experiment::ExperimentConfig config = experiment::ExperimentConfig::scaled(0.1);
  config.label = "quickstart";
  config.duration = sim::SimTime::seconds(20);
  config.policy = lb::PolicyKind::kCurrentLoad;
  config.mechanism = lb::MechanismKind::kNonBlocking;

  if (argc > 1) {
    const std::string p = argv[1];
    if (p == "total_request") config.policy = lb::PolicyKind::kTotalRequest;
    else if (p == "total_traffic") config.policy = lb::PolicyKind::kTotalTraffic;
    else if (p == "current_load") config.policy = lb::PolicyKind::kCurrentLoad;
    else { std::cerr << "unknown policy " << p << "\n"; return 1; }
  }
  if (argc > 2) {
    const std::string m = argv[2];
    if (m == "blocking") config.mechanism = lb::MechanismKind::kBlocking;
    else if (m == "modified") config.mechanism = lb::MechanismKind::kNonBlocking;
    else { std::cerr << "unknown mechanism " << m << "\n"; return 1; }
  }

  std::cout << "Running: " << experiment::describe(config) << "\n\n";
  experiment::Experiment e(config);
  e.run();

  // Every counter of the run, from one place (also its --json schema).
  const experiment::RunSummary s = experiment::summarize(e);
  std::cout << "completed requests : " << s.completed << "\n"
            << "mean response time : " << s.mean_rt_ms << " ms\n"
            << "p99 / p99.9        : " << s.p99_ms << " / " << s.p999_ms
            << " ms\n"
            << "VLRT (>1s)         : " << 100.0 * s.vlrt_fraction << " %\n"
            << "normal (<10ms)     : " << 100.0 * s.normal_fraction << " %\n"
            << "connection drops   : " << s.connection_drops << "\n\n";

  std::cout << "Tomcat-tier queue (committed requests, 50 ms windows):\n";
  experiment::print_panel(std::cout, "tomcat tier", e.tomcat_tier_queue());
  experiment::print_panel(std::cout, "apache tier", e.apache_tier_queue());
  return 0;
}
