// Figure 1: point-in-time response time under the total_request policy with
// all known millibottlenecks eliminated (pdflush effectively disabled, as
// the paper does by enlarging the dirty-page memory and flush interval).
// Expected shape: flat, low (≈3 ms) response time; negligible VLRT count.
#include "bench_common.h"

using namespace ntier;
using namespace ntier::bench;

int main(int argc, char** argv) {
  const auto opt = BenchOptions::parse(argc, argv);
  header("Figure 1", "point-in-time response time, total_request, no millibottlenecks");

  ExperimentConfig cfg = cluster_config(opt, PolicyKind::kTotalRequest,
                                        MechanismKind::kBlocking,
                                        /*millibottlenecks=*/false);
  // The paper's remedy: 4.8 GB dirty-page memory, 600 s flush interval.
  cfg.tomcat_pdflush.dirty_background_bytes = 4'800ull << 20;
  cfg.tomcat_pdflush.flush_interval = sim::SimTime::seconds(600);
  cfg.label = "fig01_baseline";
  auto e = run_experiment(opt, std::move(cfg));

  const auto windows = e->num_metric_windows();
  const auto rt_avg = experiment::series_avg(e->log().response_time_series(), windows);
  const auto rt_max = experiment::series_max(e->log().response_time_series(), windows);

  std::cout << "\n";
  experiment::print_panel(std::cout, "avg RT per 50ms (ms)", rt_avg);
  experiment::print_panel(std::cout, "max RT per 50ms (ms)", rt_max);

  std::cout << "\n";
  paper_vs_measured("average response time",
                    "3.2 ms",
                    std::to_string(e->log().mean_response_ms()) + " ms");
  paper_vs_measured("VLRT (>1 s) requests",
                    "13 of ~1.8M",
                    std::to_string(e->log().vlrt_count()) + " of " +
                        std::to_string(e->log().completed()));
  paper_vs_measured("point-in-time RT", "stable and low",
                    "peak 50ms-avg " +
                        std::to_string(experiment::max_of(rt_avg)) + " ms");

  maybe_csv(opt, "fig01_point_in_time_rt.csv", experiment::kMetricWindow,
            {"rt_avg_ms", "rt_max_ms"}, {rt_avg, rt_max});
  return 0;
}
