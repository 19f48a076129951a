#pragma once

#include <cstdint>
#include <ostream>
#include <string>
#include <vector>

#include "experiment/config.h"
#include "experiment/summary.h"
#include "metrics/histogram.h"

namespace ntier::experiment {

/// Mean / spread statistics of one scalar metric across sweep replicas.
/// ci95_half is the half-width of the 95% confidence interval of the mean
/// (Student-t for small n), so "mean ± ci95_half" is the honest headline.
struct MetricStats {
  int n = 0;
  double mean = 0;
  double stddev = 0;     // sample stddev (n-1); 0 when n < 2
  double ci95_half = 0;  // t_{0.975, n-1} * stddev / sqrt(n); 0 when n < 2
  double min = 0;
  double max = 0;

  static MetricStats from(const std::vector<double>& samples);
};

/// What SweepRunner executes: either `num_runs` seed-forked replicas of
/// `base` (the common case: same config, per-run seeds derived with
/// Rng::derive_seed so the set is deterministic and thread-schedule
/// independent), or an explicit config grid run as-is.
struct SweepConfig {
  ExperimentConfig base;
  int num_runs = 8;
  int jobs = 1;
  /// Non-empty switches to grid mode: each entry is one run, seeds and all.
  std::vector<ExperimentConfig> grid;
};

/// Merged digest of a sweep. Per-metric mean/stddev/95% CI come from the
/// per-run RunSummary values; the pooled LatencyHistogram merges every
/// replica's request histogram, so pooled percentiles are computed over all
/// samples of all runs (this is where a trustworthy sweep-level p99.9
/// comes from — a per-run p99.9 averaged across runs is not a percentile).
///
/// All aggregation happens in run-index order after every replica finished,
/// so the JSON/CSV output is byte-identical no matter how many worker
/// threads produced the runs.
struct AggregateSummary {
  std::string label;
  std::string policy;
  std::string mechanism;
  std::uint64_t base_seed = 0;
  // Deliberately no record of how many worker threads produced the runs:
  // nothing in this struct (or its serialisations) may depend on --jobs.

  std::vector<RunSummary> per_run;       // index order == run index
  std::vector<std::uint64_t> run_seeds;  // seed of each replica
  metrics::LatencyHistogram pooled;      // all response times, all runs

  int runs() const { return static_cast<int>(per_run.size()); }

  // -- cross-run statistics (computed by finalize()) --------------------------
  // One MetricStats per NTIER_RUN_METRICS entry, over the per-run values.
#define NTIER_DECLARE_STATS(name, type, unit) MetricStats name;
  NTIER_RUN_METRICS(NTIER_DECLARE_STATS)
#undef NTIER_DECLARE_STATS

  // -- pooled-distribution aggregates ----------------------------------------
  double pooled_mean_ms() const { return pooled.mean(); }
  double pooled_p50_ms() const { return pooled.percentile(50); }
  double pooled_p99_ms() const { return pooled.percentile(99); }
  double pooled_p999_ms() const { return pooled.percentile(99.9); }
  double pooled_vlrt_fraction() const;

  /// Recompute every MetricStats from per_run (call after mutating per_run;
  /// merge() and SweepRunner do it for you).
  void finalize();

  /// Concatenate two sweeps (left runs first) and re-finalize. Associative:
  /// merge(merge(a, b), c) == merge(a, merge(b, c)) field for field.
  static AggregateSummary merge(AggregateSummary a, const AggregateSummary& b);

  /// Stable-field-order JSON document (no external deps, byte-deterministic
  /// for identical inputs).
  void to_json(std::ostream& os) const;
  std::string to_json_string() const;

  /// CSV, one row per metric: metric,n,mean,stddev,ci95_half,min,max.
  void to_csv(std::ostream& os) const;
  /// CSV, one row per run: run,seed, then every metric in list order.
  void per_run_csv(std::ostream& os) const;

  /// Human-readable "mean ± ci" table (the sweep analogue of Table I rows)
  /// over every metric that is non-zero in at least one run.
  void print_table(std::ostream& os) const;
};

/// Thread-pool engine running N independent Experiment replicas in
/// parallel. Each replica is a fully isolated Experiment (own Simulation,
/// own RNG tree, own metrics), so runs never share mutable state; results
/// land in a per-index slot and are aggregated in index order, which makes
/// the sweep's output bytes independent of `jobs`.
class SweepRunner {
 public:
  explicit SweepRunner(SweepConfig config);

  /// Run every replica (blocking). Throws if any replica throws (the first
  /// exception in run-index order is rethrown).
  AggregateSummary run();

  /// The exact configs the sweep will execute (seed-forked or grid).
  const std::vector<ExperimentConfig>& planned() const { return configs_; }

  /// Seed of replica `index` for a sweep rooted at `base_seed`.
  static std::uint64_t replica_seed(std::uint64_t base_seed, int index);

 private:
  SweepConfig config_;
  std::vector<ExperimentConfig> configs_;
};

}  // namespace ntier::experiment
