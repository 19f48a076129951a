// Schema tests for the run exports generated from NTIER_RUN_METRICS.
//
// The goldens under tests/golden/ were written by `ntier_run` before the
// exports were generated from the counter list, with
//   ntier_run <kGoldenFlags> --trace t.jsonl --trace-sample tail
//             --json run_summary.json
//   ntier_run <kGoldenFlags> --sweep-seeds 3 --json sweep.json --csv DIR
// (DIR/sweep_aggregate.csv and DIR/sweep_runs.csv). The flags turn on the
// KV and cache tiers, overload control, retries, recovery, online detection,
// telemetry and tail sampling, so every section of the summary is non-zero.
//
// Parity rules: the RunSummary JSON is byte-identical once the lines of keys
// added since (kAddedKeys) are removed. The sweep exports keep every entry,
// row and column of the golden with identical value text; only their order
// may change, to the list order.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <tuple>
#include <vector>

#include <unistd.h>

#include "../bench/bench_common.h"
#include "cli/cli.h"
#include "experiment/summary.h"
#include "experiment/sweep.h"
#include "millib/fault_plan.h"

namespace ntier::experiment {
namespace {

const std::vector<std::string> kGoldenFlags = {
    "--seed", "42", "--db-tier", "kv", "--cache-tier", "--overload", "full",
    "--recovery", "on", "--resilience", "--chaos", "--kv-millibottlenecks",
    "--detect", "--telemetry", "--clients", "1000", "--think-ms", "50",
    "--duration-s", "8", "--quiet"};

/// Keys the RunSummary JSON gained since the goldens were written: the
/// sweep/bench-only columns that moved into summarize(), then the counters
/// the reports used to read from the components themselves.
const std::set<std::string> kAddedKeys = {
    "total_sheds", "recovery_interventions", "vlrt_count",
    // report counters
    "issued", "in_flight", "breaker_trips", "health_probes_sent",
    "health_probe_timeouts", "probes_sent", "probe_replies", "probe_timeouts",
    "probes_piggybacked", "probe_picks", "probe_tiebreaks", "probe_fallbacks",
    "probe_mean_staleness_ms", "recovery_ticks", "recovery_episode_ticks",
    "kv_quorum_reads", "kv_quorum_writes", "kv_hints_created",
    "kv_hints_pending", "cache_invalidations_delivered", "cache_evictions",
    "cache_expirations", "cache_storms",
    // DB-router counters
    "db_router_errors", "db_queries_routed", "mysql_queries"};

std::string golden_path(const std::string& name) {
  return std::string(NTIER_GOLDEN_DIR) + "/" + name;
}

std::string slurp(const std::string& path) {
  std::ifstream f(path, std::ios::binary);
  EXPECT_TRUE(f.good()) << "cannot read " << path;
  std::ostringstream os;
  os << f.rdbuf();
  return os.str();
}

std::vector<std::string> lines_of(const std::string& text) {
  std::vector<std::string> out;
  std::istringstream in(text);
  for (std::string line; std::getline(in, line);) out.push_back(line);
  return out;
}

std::vector<std::string> split_csv(const std::string& line) {
  std::vector<std::string> out;
  std::istringstream in(line);
  for (std::string cell; std::getline(in, cell, ',');) out.push_back(cell);
  return out;
}

/// JSON key of a `  "key": value` line, or "" for structural lines.
std::string key_of(const std::string& line) {
  const auto open = line.find('"');
  const auto close = line.find("\": ", open + 1);
  if (open == std::string::npos || close == std::string::npos) return "";
  if (line.find_first_not_of(' ') != open) return "";
  return line.substr(open + 1, close - open - 1);
}

/// Every keyed line of a pretty-printed JSON document, indexed by
/// (indent, key, occurrence) so per-run objects line up by run index. The
/// value keeps its text but drops the trailing comma (the last entry of an
/// object has none, and reordering may move it).
using KeyedLines =
    std::map<std::tuple<std::size_t, std::string, int>, std::string>;

KeyedLines keyed_lines(const std::string& json) {
  KeyedLines out;
  std::map<std::pair<std::size_t, std::string>, int> seen;
  for (const std::string& line : lines_of(json)) {
    const std::string key = key_of(line);
    if (key.empty()) continue;
    const std::size_t indent = line.find('"');
    std::string value = line.substr(indent + key.size() + 4);
    if (!value.empty() && value.back() == ',') value.pop_back();
    out[{indent, key, seen[{indent, key}]++}] = value;
  }
  return out;
}

std::filesystem::path scratch_dir(const std::string& name) {
  const auto dir = std::filesystem::path(::testing::TempDir()) /
                   ("ntier_summary_schema_" + name + "_" +
                    std::to_string(::getpid()));
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  return dir;
}

void run_cli_with(std::vector<std::string> args) {
  auto parsed = cli::parse_cli(args);
  ASSERT_TRUE(parsed.ok()) << parsed.error;
  ASSERT_EQ(cli::run_cli(*parsed.options), 0);
}

/// Every scalar of a RunSummary JSON document, by key.
std::map<std::string, double> json_values(const std::string& json) {
  std::map<std::string, double> out;
  for (const std::string& line : lines_of(json)) {
    const std::string key = key_of(line);
    if (key.empty()) continue;
    const std::string value = line.substr(line.find("\": ") + 3);
    if (value.empty() || value[0] == '"' || value[0] == '[') continue;
    out[key] = std::stod(value);
  }
  return out;
}

/// Each of `keys` is in `values` and above zero.
void expect_non_zero(const std::map<std::string, double>& values,
                     const std::vector<std::string>& keys,
                     const std::string& run) {
  for (const std::string& key : keys) {
    const auto it = values.find(key);
    if (it == values.end()) {
      ADD_FAILURE() << key << " missing from the JSON summary of " << run;
      continue;
    }
    EXPECT_GT(it->second, 0.0) << key << " is 0 in " << run;
  }
}

TEST(SummarySchema, RunSummaryJsonMatchesGolden) {
  const auto dir = scratch_dir("run");
  auto args = kGoldenFlags;
  args.insert(args.end(), {"--trace", (dir / "t.jsonl").string(),
                           "--trace-sample", "tail", "--json",
                           (dir / "run.json").string()});
  run_cli_with(args);

  std::string kept;
  for (const std::string& line : lines_of(slurp((dir / "run.json").string())))
    if (!kAddedKeys.count(key_of(line))) kept += line + '\n';
  EXPECT_EQ(kept, slurp(golden_path("run_summary.json")));
  std::filesystem::remove_all(dir);
}

TEST(SummarySchema, SweepExportsKeepEveryGoldenEntry) {
  const auto dir = scratch_dir("sweep");
  auto args = kGoldenFlags;
  args.insert(args.end(), {"--sweep-seeds", "3", "--json",
                           (dir / "sweep.json").string(), "--csv",
                           (dir / "csv").string()});
  run_cli_with(args);

  // Sweep JSON: every golden entry (top level, metrics, per-run objects)
  // is still there with the same value text.
  const KeyedLines now = keyed_lines(slurp((dir / "sweep.json").string()));
  const KeyedLines gold = keyed_lines(slurp(golden_path("sweep.json")));
  ASSERT_GT(gold.size(), 200u);
  for (const auto& [where, value] : gold) {
    const auto it = now.find(where);
    ASSERT_NE(it, now.end()) << "missing sweep JSON key " << std::get<1>(where);
    EXPECT_EQ(it->second, value) << std::get<1>(where);
  }

  // Aggregate CSV: same header, every golden row verbatim.
  const auto agg_now =
      lines_of(slurp((dir / "csv/sweep_aggregate.csv").string()));
  const auto agg_gold = lines_of(slurp(golden_path("sweep_aggregate.csv")));
  ASSERT_FALSE(agg_gold.empty());
  EXPECT_EQ(agg_now.front(), agg_gold.front());
  for (const std::string& row : agg_gold)
    EXPECT_NE(std::find(agg_now.begin(), agg_now.end(), row), agg_now.end())
        << "missing aggregate row " << row;

  // Per-run CSV: every golden column, cell for cell.
  const auto runs_now = lines_of(slurp((dir / "csv/sweep_runs.csv").string()));
  const auto runs_gold = lines_of(slurp(golden_path("sweep_runs.csv")));
  ASSERT_EQ(runs_now.size(), runs_gold.size());
  const auto head_now = split_csv(runs_now.front());
  const auto head_gold = split_csv(runs_gold.front());
  for (std::size_t c = 0; c < head_gold.size(); ++c) {
    const auto at = std::find(head_now.begin(), head_now.end(), head_gold[c]);
    ASSERT_NE(at, head_now.end()) << "missing per-run column " << head_gold[c];
    const auto idx = static_cast<std::size_t>(at - head_now.begin());
    for (std::size_t r = 1; r < runs_gold.size(); ++r)
      EXPECT_EQ(split_csv(runs_now[r]).at(idx), split_csv(runs_gold[r]).at(c))
          << head_gold[c] << " run " << r - 1;
  }
  std::filesystem::remove_all(dir);
}

// The counters ntier_run's report lines, the chaos and metastable results
// and the extension benches print are list entries, so the JSON summary
// carries each of them, and each is non-zero in a run that exercises it.
TEST(SummarySchema, ReportCountersAreExportedAndNonZeroWhenExercised) {
  const auto dir = scratch_dir("report_counters");
  const auto cli_json = [&dir](std::vector<std::string> args,
                               const std::string& name) {
    args.insert(args.end(), {"--json", (dir / name).string()});
    run_cli_with(args);
    return json_values(slurp((dir / name).string()));
  };

  expect_non_zero(cli_json(kGoldenFlags, "golden.json"),
                  {"issued", "in_flight", "breaker_trips",
                   "health_probes_sent", "health_probe_timeouts",
                   "recovery_ticks", "recovery_episode_ticks",
                   "kv_quorum_reads", "kv_quorum_writes",
                   "cache_invalidations_delivered"},
                  "the golden run");
  expect_non_zero(
      cli_json({"--policy", "prequal", "--duration-s", "4", "--quiet"},
               "prequal.json"),
      {"probes_sent", "probe_replies", "probes_piggybacked", "probe_picks",
       "probe_tiebreaks", "probe_fallbacks", "probe_mean_staleness_ms"},
      "a prequal run");
  // Saturated Tomcats answer some probes past the pool's 30 ms timeout.
  expect_non_zero(cli_json({"--policy", "prequal", "--clients", "3000",
                            "--think-ms", "50", "--duration-s", "6",
                            "--quiet"},
                           "prequal_saturated.json"),
                  {"probe_timeouts"}, "a saturated prequal run");

  // The DB routers' counters: two prequal-routed replicas both serve.
  run_cli_with({"--mysql", "2", "--db-policy", "prequal", "--db-mechanism",
                "modified", "--duration-s", "4", "--quiet", "--json",
                (dir / "db_prequal.json").string()});
  const std::string db_json = slurp((dir / "db_prequal.json").string());
  expect_non_zero(json_values(db_json),
                  {"db_queries_routed", "probes_sent", "probe_picks"},
                  "a prequal DB-router run");
  const auto queries = db_json.find("\"mysql_queries\": [");
  ASSERT_NE(queries, std::string::npos);
  unsigned long long served0 = 0, served1 = 0;
  ASSERT_EQ(std::sscanf(db_json.c_str() + queries,
                        "\"mysql_queries\": [%llu, %llu]", &served0, &served1),
            2);
  EXPECT_GT(served0, 0u);
  EXPECT_GT(served1, 0u);
  // One pooled connection per (Tomcat, replica) under the fail-fast
  // mechanism: queries that find both connections busy are router errors.
  ExperimentConfig d;
  d.num_mysql = 2;
  d.db_router.policy = lb::PolicyKind::kPrequal;
  d.db_router.mechanism = lb::MechanismKind::kNonBlocking;
  d.db_router.pool_per_replica = 1;
  d.duration = sim::SimTime::seconds(2);
  d.tracing = false;
  Experiment starved(d);
  starved.run();
  expect_non_zero(json_values(summarize(starved).to_json_string()),
                  {"db_router_errors"}, "a DB-router run short of connections");

  // Hints and cache churn: a replica that crashes and never returns keeps
  // its hints pending, and a small short-lived cache evicts and expires.
  ExperimentConfig c;
  c.num_apaches = 2;
  c.num_tomcats = 3;
  c.num_clients = 300;
  c.think_mean = sim::SimTime::millis(200);
  c.warmup = sim::SimTime::millis(500);
  c.duration = sim::SimTime::seconds(4);
  c.tomcat_millibottlenecks = false;
  c.tracing = false;
  c.db_tier = server::DbTier::kKv;
  c.kv.replicas = 5;
  c.workload.key_space = 10'000;
  c.cache_tier = true;
  c.cache.bytes = 1 << 20;
  c.cache.ttl = sim::SimTime::millis(50);
  millib::FaultSpec storm;
  storm.kind = millib::FaultKind::kInvalidationStorm;
  storm.start = sim::SimTime::seconds(1);
  storm.duration = sim::SimTime::seconds(1);
  storm.severity = 1.0;
  millib::FaultSpec crash;
  crash.kind = millib::FaultKind::kReplicaCrash;
  crash.worker = 0;
  crash.start = sim::SimTime::seconds(2);
  crash.duration = sim::SimTime::seconds(60);
  c.fault_plan = millib::FaultPlan::single(storm);
  c.fault_plan.merge(millib::FaultPlan::single(crash));
  Experiment e(c);
  e.run();
  expect_non_zero(json_values(summarize(e).to_json_string()),
                  {"kv_hints_created", "kv_hints_pending", "cache_evictions",
                   "cache_expirations", "cache_storms"},
                  "a KV + cache run with a storm and a lasting replica crash");
  std::filesystem::remove_all(dir);
}

TEST(SummarySchema, EveryMetricReachesEveryExport) {
  const auto dir = scratch_dir("complete");
  auto parsed = cli::parse_cli(
      {"--db-tier", "kv", "--cache-tier", "--clients", "200", "--think-ms",
       "100", "--duration-s", "2", "--no-millibottlenecks"});
  ASSERT_TRUE(parsed.ok()) << parsed.error;
  const ExperimentConfig cfg = parsed.options->config;

  BenchOptions opt;
  opt.program = "summary_schema_test";
  opt.json_path = (dir / "rows.jsonl").string();
  opt.sweep_seeds = 2;
  const auto e = bench::run_experiment(opt, cfg, /*announce=*/false);
  const AggregateSummary agg = bench::run_sweep(opt, cfg, /*announce=*/false);

  const std::string run_json = summarize(*e).to_json_string();
  const std::string sweep_json = agg.to_json_string();
  const std::string sweep_metrics =
      sweep_json.substr(0, sweep_json.find("\"pooled\""));
  std::ostringstream agg_csv, runs_csv;
  agg.to_csv(agg_csv);
  agg.per_run_csv(runs_csv);
  const auto csv_rows = lines_of(agg_csv.str());
  const auto per_run_header = split_csv(lines_of(runs_csv.str()).front());
  const auto rows = lines_of(slurp(opt.json_path));
  ASSERT_EQ(rows.size(), 2u);

  std::set<std::string> names;
  for (const RunMetric& m : kRunMetrics) {
    const std::string name = m.name;
    names.insert(name);
    EXPECT_NE(run_json.find("\n  \"" + name + "\": "), std::string::npos)
        << name << " missing from RunSummary JSON";
    EXPECT_NE(sweep_metrics.find("\n    \"" + name + "\": {"),
              std::string::npos)
        << name << " missing from sweep JSON metrics";
    EXPECT_TRUE(std::any_of(csv_rows.begin(), csv_rows.end(),
                            [&](const std::string& row) {
                              return row.rfind(name + ",", 0) == 0;
                            }))
        << name << " missing from aggregate CSV";
    EXPECT_NE(std::find(per_run_header.begin(), per_run_header.end(), name),
              per_run_header.end())
        << name << " missing from per-run CSV header";
    EXPECT_NE(rows[0].find("\"" + name + "\":"), std::string::npos)
        << name << " missing from bench JSON row";
    EXPECT_NE(rows[1].find("\"" + name + "\":"), std::string::npos)
        << name << " missing from bench sweep JSON row";
    EXPECT_NE(rows[1].find("\"" + name + "_ci95\":"), std::string::npos)
        << name << " missing its CI from bench sweep JSON row";
  }
  EXPECT_EQ(names.size(), kNumRunMetrics) << "duplicate metric names";

  // And the list is the whole schema: every scalar of the RunSummary JSON
  // is a list entry (the arrays and identity strings stay outside it).
  const std::set<std::string> outside = {
      "label",          "policy",      "mechanism",     "apache_mean_cpu",
      "tomcat_mean_cpu", "mysql_mean_cpu", "mysql_queries", "kv_mean_cpu",
      "cache_mean_cpu"};
  for (const std::string& line : lines_of(run_json)) {
    const std::string key = key_of(line);
    if (key.empty() || outside.count(key)) continue;
    EXPECT_TRUE(names.count(key)) << key << " is exported but not listed";
  }
  std::filesystem::remove_all(dir);
}

}  // namespace
}  // namespace ntier::experiment
