#pragma once

#include <ostream>
#include <string>
#include <vector>

#include "experiment/experiment.h"
#include "metrics/time_series.h"
#include "obs/trace_io.h"

namespace ntier::experiment {

/// Table I header (shared by the table bench and the examples).
void print_table1_header(std::ostream& os);

/// Render a numeric series as a unicode sparkline (so the bench output shows
/// the *shape* of each figure directly in the terminal).
std::string sparkline(const std::vector<double>& values, std::size_t width = 80);

/// Extract one value per window from a TimeSeries.
std::vector<double> series_avg(const metrics::TimeSeries& s, std::size_t windows);
std::vector<double> series_max(const metrics::TimeSeries& s, std::size_t windows);
std::vector<double> series_count(const metrics::TimeSeries& s, std::size_t windows);

/// Slice [t0, t1) out of a per-window series.
std::vector<double> slice(const std::vector<double>& v, sim::SimTime window,
                          sim::SimTime t0, sim::SimTime t1);

double max_of(const std::vector<double>& v);
double sum_of(const std::vector<double>& v);

/// Print "name: [sparkline]  (peak=…)" summarising a figure panel.
void print_panel(std::ostream& os, const std::string& name,
                 const std::vector<double>& v);

/// Dump one or more aligned per-window series as CSV columns.
void write_series_csv(const std::string& path, sim::SimTime window,
                      const std::vector<std::string>& names,
                      const std::vector<std::vector<double>>& columns);

/// Shared bench command line: `--full` switches to paper scale, `--csv DIR`
/// writes raw series, `--seed N` overrides the seed, `--trace FILE` captures
/// the cross-tier event trace of each run (2nd+ runs get a `.N` suffix),
/// `--trace-format jsonl|chrome` picks the serialisation, `--json FILE`
/// appends one JSON result row per run (for scripts/run_all_benches.sh), and
/// `--sweep-seeds N --jobs J` turns each table row into an N-replica sweep
/// whose rows and JSON carry mean ± 95% CI columns. An unknown flag, a
/// missing value or a malformed one prints an `error:` line and the usage
/// to stderr and exits with status 2, as ntier_run does.
struct BenchOptions {
  bool full = false;
  /// `--quick`: shrink each run for CI smoke jobs (shorter duration; benches
  /// may also skip their most expensive cells).
  bool quick = false;
  std::string csv_dir;
  std::uint64_t seed = 42;
  std::string program;     // argv[0] basename, stamped into JSON rows
  std::string trace_path;  // write each run's event trace here
  obs::TraceFormat trace_format = obs::TraceFormat::kJsonl;
  std::string json_path;   // append per-run JSON result rows here
  int sweep_seeds = 1;     // > 1: sweep each row across derived seeds
  int jobs = 1;            // sweep worker threads (output is jobs-invariant)
  static BenchOptions parse(int argc, char** argv);
  /// Apply scale/seed to a config produced by a preset.
  ExperimentConfig apply(ExperimentConfig base) const;
};

}  // namespace ntier::experiment
