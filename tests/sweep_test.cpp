#include "experiment/sweep.h"

#include <gtest/gtest.h>

#include <cmath>
#include <sstream>

#include "test_util.h"

namespace ntier::experiment {
namespace {

using lb::MechanismKind;
using lb::PolicyKind;
using sim::SimTime;

/// A deliberately tiny config so a replica runs in tens of milliseconds.
ExperimentConfig tiny_config() {
  auto c = testing::quick_config(PolicyKind::kCurrentLoad,
                                 MechanismKind::kNonBlocking,
                                 /*millibottlenecks=*/true, SimTime::seconds(3));
  c.num_clients = 400;
  c.warmup = SimTime::millis(500);
  c.label = "sweep_unit";
  return c;
}

TEST(MetricStats, ComputesMeanStddevAndCi) {
  const MetricStats s = MetricStats::from({2.0, 4.0, 6.0, 8.0});
  EXPECT_EQ(s.n, 4);
  EXPECT_DOUBLE_EQ(s.mean, 5.0);
  EXPECT_NEAR(s.stddev, std::sqrt(20.0 / 3.0), 1e-12);  // sample stddev
  // t_{0.975,3} = 3.182 -> half-width 3.182 * stddev / 2.
  EXPECT_NEAR(s.ci95_half, 3.182 * s.stddev / 2.0, 1e-9);
  EXPECT_DOUBLE_EQ(s.min, 2.0);
  EXPECT_DOUBLE_EQ(s.max, 8.0);
}

TEST(MetricStats, DegenerateSampleSizes) {
  EXPECT_EQ(MetricStats::from({}).n, 0);
  const MetricStats one = MetricStats::from({7.5});
  EXPECT_EQ(one.n, 1);
  EXPECT_DOUBLE_EQ(one.mean, 7.5);
  EXPECT_DOUBLE_EQ(one.stddev, 0.0);
  EXPECT_DOUBLE_EQ(one.ci95_half, 0.0);
}

TEST(SweepRunner, ReplicaSeedsAreDeterministicAndDistinct) {
  for (int i = 0; i < 64; ++i) {
    EXPECT_EQ(SweepRunner::replica_seed(42, i), SweepRunner::replica_seed(42, i));
    for (int j = i + 1; j < 64; ++j)
      EXPECT_NE(SweepRunner::replica_seed(42, i), SweepRunner::replica_seed(42, j));
  }
  // The plan embeds those seeds and distinct labels.
  SweepConfig sc;
  sc.base = tiny_config();
  sc.num_runs = 3;
  SweepRunner r(sc);
  ASSERT_EQ(r.planned().size(), 3u);
  for (int i = 0; i < 3; ++i) {
    EXPECT_EQ(r.planned()[static_cast<std::size_t>(i)].seed,
              SweepRunner::replica_seed(sc.base.seed, i));
    EXPECT_EQ(r.planned()[static_cast<std::size_t>(i)].label,
              "sweep_unit#" + std::to_string(i));
  }
}

TEST(SweepRunner, JobsDoNotChangeAggregateBytes) {
  // The headline determinism contract: the same sweep run sequentially and
  // on a thread pool must produce byte-identical aggregate JSON and CSV.
  SweepConfig seq;
  seq.base = tiny_config();
  seq.num_runs = 4;
  seq.jobs = 1;
  SweepConfig par = seq;
  par.jobs = 8;

  const AggregateSummary a = SweepRunner(seq).run();
  const AggregateSummary b = SweepRunner(par).run();
  EXPECT_EQ(a.to_json_string(), b.to_json_string());
  std::ostringstream csv_a, csv_b, runs_a, runs_b;
  a.to_csv(csv_a);
  b.to_csv(csv_b);
  a.per_run_csv(runs_a);
  b.per_run_csv(runs_b);
  EXPECT_EQ(csv_a.str(), csv_b.str());
  EXPECT_EQ(runs_a.str(), runs_b.str());
}

TEST(SweepRunner, MergedSketchAndOnlineColumnsAreJobsInvariant) {
  // With telemetry + the online detector on, each replica carries its
  // response-time histogram and online-detection stats. Sequential and
  // parallel sweeps must merge them into the same pooled buckets and emit
  // the same columns.
  SweepConfig seq;
  seq.base = tiny_config();
  seq.base.telemetry.enabled = true;
  seq.base.online_detect = true;
  seq.num_runs = 4;
  seq.jobs = 1;
  SweepConfig par = seq;
  par.jobs = 8;

  const AggregateSummary a = SweepRunner(seq).run();
  const AggregateSummary b = SweepRunner(par).run();
  ASSERT_GT(a.pooled.count(), 0);
  EXPECT_EQ(a.pooled.count(), b.pooled.count());
  EXPECT_EQ(a.pooled.sum(), b.pooled.sum());
  ASSERT_EQ(a.pooled.num_buckets(), b.pooled.num_buckets());
  for (std::size_t i = 0; i < a.pooled.num_buckets(); ++i)
    EXPECT_EQ(a.pooled.bucket_count(i), b.pooled.bucket_count(i)) << i;
  EXPECT_EQ(a.to_json_string(), b.to_json_string());

  std::ostringstream runs, csv;
  a.per_run_csv(runs);
  a.to_csv(csv);
  EXPECT_NE(runs.str().find("online_episodes,online_matched,"
                            "online_truth_episodes,online_false_positives,"
                            "online_median_detection_ms,online_episode_vlrts,"
                            "trace_events_seen,trace_events_kept,"
                            "trace_kept_fraction"),
            std::string::npos);
  EXPECT_NE(csv.str().find("online_episodes,"), std::string::npos);
  EXPECT_NE(csv.str().find("online_median_detection_ms,"), std::string::npos);
  EXPECT_NE(csv.str().find("trace_kept_fraction,"), std::string::npos);
}

TEST(SweepRunner, AggregatesMatchPerRunSummaries) {
  SweepConfig sc;
  sc.base = tiny_config();
  sc.num_runs = 3;
  sc.jobs = 2;
  const AggregateSummary agg = SweepRunner(sc).run();
  ASSERT_EQ(agg.runs(), 3);
  // Every replica completed traffic, and distinct seeds produced distinct
  // (but statistically close) runs.
  std::int64_t pooled_expected = 0;
  double mean_sum = 0;
  for (const RunSummary& r : agg.per_run) {
    EXPECT_GT(r.completed, 0);
    pooled_expected += r.completed;
    mean_sum += r.mean_rt_ms;
  }
  EXPECT_EQ(agg.pooled.count(), pooled_expected);
  EXPECT_NEAR(agg.mean_rt_ms.mean, mean_sum / 3.0, 1e-12);
  EXPECT_GT(agg.mean_rt_ms.stddev, 0.0);  // seeds actually differ
  EXPECT_EQ(agg.completed.n, 3);
}

TEST(AggregateSummary, MergeIsAssociative) {
  SweepConfig sc;
  sc.base = tiny_config();
  sc.num_runs = 2;
  AggregateSummary a = SweepRunner(sc).run();
  sc.base.seed = 43;
  AggregateSummary b = SweepRunner(sc).run();
  sc.base.seed = 44;
  AggregateSummary c = SweepRunner(sc).run();

  const AggregateSummary left =
      AggregateSummary::merge(AggregateSummary::merge(a, b), c);
  const AggregateSummary right =
      AggregateSummary::merge(a, AggregateSummary::merge(b, c));
  EXPECT_EQ(left.to_json_string(), right.to_json_string());
  EXPECT_EQ(left.runs(), 6);
  EXPECT_EQ(left.pooled.count(), right.pooled.count());
}

TEST(AggregateSummary, JsonAndCsvCarryCiColumns) {
  SweepConfig sc;
  sc.base = tiny_config();
  sc.num_runs = 2;
  const AggregateSummary agg = SweepRunner(sc).run();
  const std::string json = agg.to_json_string();
  EXPECT_NE(json.find("\"ci95_half\""), std::string::npos);
  EXPECT_NE(json.find("\"pooled\""), std::string::npos);
  EXPECT_NE(json.find("\"run_seeds\""), std::string::npos);
  EXPECT_NE(json.find("\"per_run\""), std::string::npos);
  std::ostringstream csv;
  agg.to_csv(csv);
  EXPECT_NE(csv.str().find("metric,n,mean,stddev,ci95_half,min,max"),
            std::string::npos);
}

TEST(SweepRunner, GridModeRunsConfigsAsGiven) {
  SweepConfig sc;
  sc.base = tiny_config();  // ignored in grid mode
  ExperimentConfig g1 = tiny_config();
  g1.label = "grid_a";
  g1.seed = 7;
  ExperimentConfig g2 = tiny_config();
  g2.label = "grid_b";
  g2.seed = 9;
  g2.policy = lb::PolicyKind::kTotalRequest;
  sc.grid = {g1, g2};
  sc.jobs = 2;
  const AggregateSummary agg = SweepRunner(sc).run();
  ASSERT_EQ(agg.runs(), 2);
  EXPECT_EQ(agg.run_seeds, (std::vector<std::uint64_t>{7, 9}));
  EXPECT_EQ(agg.per_run[0].label, "grid_a");
  EXPECT_EQ(agg.per_run[1].label, "grid_b");
}

TEST(SweepRunner, RejectsBadConfig) {
  SweepConfig sc;
  sc.base = tiny_config();
  sc.num_runs = 0;
  EXPECT_THROW(SweepRunner{sc}, std::invalid_argument);
  sc.num_runs = 2;
  sc.jobs = 0;
  EXPECT_THROW(SweepRunner{sc}, std::invalid_argument);
}

}  // namespace
}  // namespace ntier::experiment
