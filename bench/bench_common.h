#pragma once

// Shared machinery for the figure/table reproduction benches. Every bench:
//   * builds one or more ExperimentConfigs from the paper presets,
//   * runs them,
//   * prints the same rows/series the paper reports (as numbers plus
//     terminal sparklines so the *shape* is visible at a glance),
//   * optionally dumps raw CSV via --csv DIR, and
//   * accepts --full to run at the paper's scale (70 000 clients, 180 s).

#include <chrono>
#include <filesystem>
#include <fstream>
#include <iomanip>
#include <iostream>
#include <string>
#include <vector>

#include "experiment/experiment.h"
#include "experiment/report.h"
#include "experiment/summary.h"
#include "experiment/sweep.h"
#include "obs/trace_io.h"

namespace ntier::bench {

using experiment::BenchOptions;
using experiment::Experiment;
using experiment::ExperimentConfig;
using lb::MechanismKind;
using lb::PolicyKind;
using sim::SimTime;

inline void header(const std::string& id, const std::string& title) {
  std::cout << "==================================================================\n"
            << id << ": " << title << "\n"
            << "==================================================================\n";
}

inline std::unique_ptr<Experiment> run_experiment(ExperimentConfig cfg,
                                                  bool announce = true) {
  if (announce)
    std::cout << "\n-- running " << experiment::describe(cfg) << "\n";
  auto e = std::make_unique<Experiment>(std::move(cfg));
  e->run();
  return e;
}

/// Append one JSON result row for a finished run (the contract behind
/// `scripts/run_all_benches.sh --json`): bench name, run ordinal, every
/// kRunMetrics counter of the run's RunSummary, and the wall-clock cost.
inline void append_json_row(const BenchOptions& opt, Experiment& e,
                            double wall_ms, int run) {
  std::ofstream f(opt.json_path, std::ios::app);
  if (!f) {
    std::cerr << "  [json] cannot append to " << opt.json_path << "\n";
    return;
  }
  const experiment::RunSummary s = experiment::summarize(e);
  f << std::setprecision(10) << "{\"bench\":\"" << opt.program
    << "\",\"run\":" << run << ",\"label\":\"" << s.label
    << "\",\"policy\":\"" << s.policy << "\",\"mechanism\":\"" << s.mechanism
    << "\",\"seed\":" << e.config().seed;
  for (const experiment::RunMetric& m : experiment::kRunMetrics)
    f << ",\"" << m.name << "\":" << m.get(s);
  f << ",\"wall_ms\":" << wall_ms << "}\n";
}

/// Trace/JSON-aware variant: enables event tracing when the bench was run
/// with `--trace FILE` (writing one trace file per run, suffixing `.N` from
/// the second run on) and appends a JSON result row under `--json FILE`.
inline std::unique_ptr<Experiment> run_experiment(const BenchOptions& opt,
                                                  ExperimentConfig cfg,
                                                  bool announce = true) {
  static int runs = 0;
  if (!opt.trace_path.empty()) cfg.event_trace = true;
  if (announce)
    std::cout << "\n-- running " << experiment::describe(cfg) << "\n";
  const auto wall0 = std::chrono::steady_clock::now();
  auto e = std::make_unique<Experiment>(std::move(cfg));
  e->run();
  const double wall_ms = std::chrono::duration<double, std::milli>(
                             std::chrono::steady_clock::now() - wall0)
                             .count();
  ++runs;
  if (!opt.trace_path.empty() && e->trace() != nullptr) {
    std::string path = opt.trace_path;
    if (runs > 1) path += "." + std::to_string(runs);
    std::ofstream f(path, std::ios::binary);
    if (!f) {
      std::cerr << "  [trace] cannot write " << path << "\n";
    } else {
      obs::write_trace(f, *e->trace(), opt.trace_format);
      std::cout << "  [trace] " << path << " (" << e->trace()->size()
                << " events";
      if (e->trace()->dropped() > 0)
        std::cout << ", " << e->trace()->dropped() << " dropped by ring";
      std::cout << ")\n";
    }
  }
  if (!opt.json_path.empty()) append_json_row(opt, *e, wall_ms, runs);
  return e;
}

/// JSON row for a sweep: same shape as append_json_row plus `runs`, a
/// `<name>_ci95` half-width after each cross-run mean, and the
/// pooled-distribution tail columns, so BENCH_results.json rows say how
/// trustworthy each number is.
inline void append_sweep_json_row(const BenchOptions& opt,
                                  const experiment::AggregateSummary& agg,
                                  double wall_ms, int run) {
  std::ofstream f(opt.json_path, std::ios::app);
  if (!f) {
    std::cerr << "  [json] cannot append to " << opt.json_path << "\n";
    return;
  }
  f << std::setprecision(10) << "{\"bench\":\"" << opt.program
    << "\",\"run\":" << run << ",\"label\":\"" << agg.label
    << "\",\"policy\":\"" << agg.policy << "\",\"mechanism\":\""
    << agg.mechanism << "\",\"seed\":" << agg.base_seed
    << ",\"runs\":" << agg.runs();
  for (const experiment::RunMetric& m : experiment::kRunMetrics) {
    const experiment::MetricStats& st = agg.*m.stats;
    f << ",\"" << m.name << "\":" << st.mean << ",\"" << m.name
      << "_ci95\":" << st.ci95_half;
  }
  f << ",\"pooled_p99_ms\":" << agg.pooled_p99_ms()
    << ",\"pooled_p999_ms\":" << agg.pooled_p999_ms()
    << ",\"pooled_vlrt_fraction\":" << agg.pooled_vlrt_fraction()
    << ",\"wall_ms\":" << wall_ms << "}\n";
}

/// Run one bench row as a sweep of `opt.sweep_seeds` replicas on `opt.jobs`
/// worker threads. With sweep_seeds == 1 the config runs exactly as given
/// (seed untouched), so single-run bench output stays comparable across
/// versions; CI half-widths are then 0.
inline experiment::AggregateSummary run_sweep(const BenchOptions& opt,
                                              ExperimentConfig cfg,
                                              bool announce = true) {
  static int runs = 0;
  experiment::SweepConfig sc;
  if (opt.sweep_seeds <= 1) {
    sc.grid.push_back(std::move(cfg));
  } else {
    sc.base = std::move(cfg);
    sc.num_runs = opt.sweep_seeds;
  }
  sc.jobs = opt.jobs;
  if (announce)
    std::cout << "\n-- sweeping " << opt.sweep_seeds << " seeds of "
              << experiment::describe(sc.grid.empty() ? sc.base : sc.grid[0])
              << "\n";
  const auto wall0 = std::chrono::steady_clock::now();
  experiment::SweepRunner runner(std::move(sc));
  experiment::AggregateSummary agg = runner.run();
  const double wall_ms = std::chrono::duration<double, std::milli>(
                             std::chrono::steady_clock::now() - wall0)
                             .count();
  ++runs;
  if (!opt.json_path.empty()) append_sweep_json_row(opt, agg, wall_ms, runs);
  return agg;
}

/// Table-I style row for a sweep: the same columns as
/// RequestLog::summary_row, each cross-run mean followed by its ±CI.
inline void print_sweep_row(std::ostream& os, const std::string& label,
                            const experiment::AggregateSummary& agg) {
  auto pm = [](double mean, double ci, int prec) {
    std::ostringstream s;
    s << std::fixed << std::setprecision(prec) << mean << "+-"
      << std::setprecision(prec) << ci;
    return s.str();
  };
  os << std::left << std::setw(44) << label << std::right << std::setw(11)
     << static_cast<std::int64_t>(agg.completed.mean + 0.5) << std::setw(13)
     << pm(agg.mean_rt_ms.mean, agg.mean_rt_ms.ci95_half, 2) << std::setw(12)
     << pm(agg.vlrt_fraction.mean * 100, agg.vlrt_fraction.ci95_half * 100, 2)
     << std::setw(12)
     << pm(agg.normal_fraction.mean * 100, agg.normal_fraction.ci95_half * 100,
           1)
     << "\n";
}

/// The standard 4A/4T/1M environment with millibottlenecks on the Tomcats.
inline ExperimentConfig cluster_config(const BenchOptions& opt,
                                       PolicyKind policy, MechanismKind mech,
                                       bool millibottlenecks = true) {
  ExperimentConfig c = opt.apply(ExperimentConfig::scaled(0.1));
  c.duration = opt.full    ? SimTime::seconds(180)
               : opt.quick ? SimTime::seconds(8)
                           : SimTime::seconds(20);
  c.policy = policy;
  c.mechanism = mech;
  c.tomcat_millibottlenecks = millibottlenecks;
  return c;
}

/// First completed pdflush episode after warmup; returns false if none.
inline bool first_flush(Experiment& e, int& tomcat, SimTime& start,
                        SimTime& end) {
  bool found = false;
  for (int t = 0; t < e.num_tomcats(); ++t) {
    for (const auto& [s, f] : e.flush_intervals(t)) {
      if (s > e.config().warmup && f < e.config().duration &&
          (!found || s < start)) {
        tomcat = t;
        start = s;
        end = f;
        found = true;
      }
    }
  }
  return found;
}

/// Paper-style workload-distribution table: share of Apache-0 assignments
/// per Tomcat in consecutive sub-windows of [t0, t1).
inline void print_distribution(Experiment& e, SimTime t0, SimTime t1,
                               SimTime step, int stalled = -1) {
  std::cout << "  Apache1 workload distribution (assignments per "
            << step.to_string() << " window";
  if (stalled >= 0) std::cout << "; Tomcat" << stalled + 1 << " has the millibottleneck";
  std::cout << "):\n  " << std::setw(12) << "window";
  for (int t = 0; t < e.num_tomcats(); ++t)
    std::cout << std::setw(10) << ("tomcat" + std::to_string(t + 1));
  std::cout << "\n";
  const auto& bal = e.balancer_series(0);
  for (SimTime w = t0; w < t1; w += step) {
    std::cout << "  " << std::setw(7) << std::fixed << std::setprecision(2)
              << w.to_seconds() << "s    ";
    for (int t = 0; t < e.num_tomcats(); ++t) {
      const auto counts = experiment::series_count(bal.assignments[t],
                                                   e.num_metric_windows());
      const double n = experiment::sum_of(
          experiment::slice(counts, experiment::kMetricWindow, w, w + step));
      std::cout << std::setw(10) << static_cast<std::int64_t>(n);
    }
    std::cout << "\n";
  }
}

/// Dump aligned per-window series as CSV when --csv was given.
inline void maybe_csv(const BenchOptions& opt, const std::string& file,
                      SimTime window, const std::vector<std::string>& names,
                      const std::vector<std::vector<double>>& cols) {
  if (opt.csv_dir.empty()) return;
  static bool warned = false;
  try {
    std::filesystem::create_directories(opt.csv_dir);
    const std::string path = opt.csv_dir + "/" + file;
    experiment::write_series_csv(path, window, names, cols);
    std::cout << "  [csv] " << path << "\n";
  } catch (const std::exception& err) {
    if (!warned) {
      std::cerr << "  [csv] cannot write CSV series under --csv dir '"
                << opt.csv_dir << "': " << err.what() << "\n";
      warned = true;
    }
  }
}

inline void paper_vs_measured(const std::string& what, const std::string& paper,
                              const std::string& measured) {
  std::cout << "  " << std::left << std::setw(42) << what
            << " paper: " << std::setw(18) << paper << " measured: " << measured
            << "\n";
}

}  // namespace ntier::bench
