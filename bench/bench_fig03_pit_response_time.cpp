// Figure 3: point-in-time response time of total_request and total_traffic
// during the first 10 seconds, millibottlenecks present. Expected shape:
// large fluctuations — second-scale spikes against a low baseline — showing
// that the (acceptable) average response time is not representative.
#include "bench_common.h"

using namespace ntier;
using namespace ntier::bench;

int main(int argc, char** argv) {
  const auto opt = BenchOptions::parse(argc, argv);
  header("Figure 3",
         "point-in-time response time, total_request vs total_traffic, first 10 s");

  for (const auto policy :
       {PolicyKind::kTotalRequest, PolicyKind::kTotalTraffic}) {
    auto e = run_experiment(opt,
        cluster_config(opt, policy, MechanismKind::kBlocking));
    const auto w = experiment::kMetricWindow;
    auto rt = experiment::series_avg(e->log().response_time_series(),
                                     e->num_metric_windows());
    rt = experiment::slice(rt, w, sim::SimTime::zero(), sim::SimTime::seconds(10));
    std::cout << "\n[" << lb::to_string(policy) << "]\n";
    experiment::print_panel(std::cout, "avg RT per 50ms (ms), 0-10s", rt);
    paper_vs_measured("average RT (whole run)", "below 100 ms but unstable",
                      std::to_string(e->log().mean_response_ms()) + " ms");
    paper_vs_measured("peak 50ms-avg RT in first 10 s", "second-scale spikes",
                      std::to_string(experiment::max_of(rt)) + " ms");
    maybe_csv(opt, "fig03_" + lb::to_string(policy) + ".csv", w, {"rt_avg_ms"},
              {rt});
  }
  return 0;
}
