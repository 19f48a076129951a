// Figure 2 (a-e): anatomy of VLRT requests on the simplest configuration
// (1 Apache / 1 Tomcat / 1 MySQL) with millibottlenecks present on both the
// Apache and the Tomcat node. The five panels reproduce the paper's causal
// chain: VLRT clusters <- per-tier queue peaks <- transient CPU saturation
// <- iowait saturation <- abrupt dirty-page drops (pdflush).
#include "bench_common.h"

using namespace ntier;
using namespace ntier::bench;

int main(int argc, char** argv) {
  const auto opt = BenchOptions::parse(argc, argv);
  header("Figure 2", "VLRT requests caused by flushing dirty pages (1A/1T/1M)");

  ExperimentConfig cfg = opt.apply(ExperimentConfig::single_node(0.1));
  cfg.duration = opt.full ? sim::SimTime::seconds(180) : sim::SimTime::seconds(20);
  auto e = run_experiment(opt, std::move(cfg));

  const auto windows = e->num_metric_windows();
  const auto w = experiment::kMetricWindow;

  const auto vlrt = experiment::series_count(e->log().vlrt_series(), windows);
  const auto apache_q = e->apache_tier_queue();
  const auto tomcat_q = e->tomcat_tier_queue();
  const auto mysql_q = e->mysql_tier_queue();
  const auto cpu = experiment::series_avg(e->cpu_series(obs::Tier::kTomcat, 0), windows);
  const auto iowait = experiment::series_avg(e->tomcat_iowait_series(0), windows);
  std::vector<double> dirty(windows, 0.0);
  for (std::size_t i = 0; i < windows; ++i)
    dirty[i] = e->tomcat_dirty_series(0).max(i) / (1 << 20);

  std::cout << "\n(a) VLRT per 50 ms, (b) queues, (c) CPU, (d) iowait, (e) dirty pages\n";
  experiment::print_panel(std::cout, "(a) VLRT requests / 50ms", vlrt);
  experiment::print_panel(std::cout, "(b) apache queue", apache_q);
  experiment::print_panel(std::cout, "(b) tomcat queue", tomcat_q);
  experiment::print_panel(std::cout, "(b) mysql queue", mysql_q);
  experiment::print_panel(std::cout, "(c) tomcat CPU util", cpu);
  experiment::print_panel(std::cout, "(d) tomcat iowait", iowait);
  experiment::print_panel(std::cout, "(e) dirty pages (MB)", dirty);

  // Correlation checks, echoing the paper's reading of the figure.
  int flushes = 0, flushes_with_cpu_sat = 0, flushes_with_queue_peak = 0;
  for (const auto& [s, f] : e->flush_intervals(0)) {
    if (f >= e->config().duration) continue;
    ++flushes;
    const auto cpu_win = experiment::slice(cpu, w, s, f + w);
    const auto q_win =
        experiment::slice(tomcat_q, w, s, f + sim::SimTime::millis(200));
    if (experiment::max_of(cpu_win) > 0.9) ++flushes_with_cpu_sat;
    if (experiment::max_of(q_win) >
        4.0 * experiment::max_of(experiment::slice(
                  tomcat_q, w, sim::SimTime::seconds(2), sim::SimTime::seconds(4))))
      ++flushes_with_queue_peak;
  }
  std::cout << "\n";
  paper_vs_measured("dirty-page drops correlate with iowait", "strong",
                    std::to_string(flushes) + " flushes");
  paper_vs_measured("flushes with transient CPU saturation", "all",
                    std::to_string(flushes_with_cpu_sat) + "/" +
                        std::to_string(flushes));
  paper_vs_measured("flushes with tomcat queue peak", "all",
                    std::to_string(flushes_with_queue_peak) + "/" +
                        std::to_string(flushes));
  paper_vs_measured("VLRT vs normal requests", "1222 vs 16722 (sampled window)",
                    std::to_string(e->log().vlrt_count()) + " vs " +
                        std::to_string(static_cast<std::int64_t>(
                            e->log().normal_fraction() * e->log().completed())));

  maybe_csv(opt, "fig02_anatomy.csv", w,
            {"vlrt", "apache_q", "tomcat_q", "mysql_q", "cpu", "iowait",
             "dirty_mb"},
            {vlrt, apache_q, tomcat_q, mysql_q, cpu, iowait, dirty});
  return 0;
}
