// Tests for the reporting/bench utilities: sparklines, series extraction,
// slicing, CSV dumps, Table-I formatting, bench options and JSON summaries.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "experiment/report.h"
#include "experiment/summary.h"
#include "test_util.h"

namespace ntier::experiment {
namespace {

using sim::SimTime;

TEST(Sparkline, EmptyAndFlatSeries) {
  EXPECT_EQ(sparkline({}), "");
  const std::string flat = sparkline({0.0, 0.0, 0.0});
  EXPECT_FALSE(flat.empty());  // all-zero renders blanks, not garbage
}

TEST(Sparkline, PeakGetsFullBlock) {
  const std::string s = sparkline({0.0, 1.0, 8.0, 2.0});
  EXPECT_NE(s.find("█"), std::string::npos);
}

TEST(Sparkline, DownsamplesMaxPreserving) {
  std::vector<double> v(800, 1.0);
  v[400] = 100.0;  // a single spike must survive 10x downsampling
  const std::string s = sparkline(v, 80);
  EXPECT_NE(s.find("█"), std::string::npos);
}

TEST(SeriesExtraction, AvgMaxCount) {
  metrics::TimeSeries ts(SimTime::millis(50));
  ts.record(SimTime::millis(10), 2.0);
  ts.record(SimTime::millis(20), 4.0);
  ts.record(SimTime::millis(60), 10.0);
  const auto avg = series_avg(ts, 3);
  const auto mx = series_max(ts, 3);
  const auto cnt = series_count(ts, 3);
  EXPECT_DOUBLE_EQ(avg[0], 3.0);
  EXPECT_DOUBLE_EQ(mx[0], 4.0);
  EXPECT_DOUBLE_EQ(cnt[0], 2.0);
  EXPECT_DOUBLE_EQ(avg[1], 10.0);
  EXPECT_DOUBLE_EQ(avg[2], 0.0);  // padded beyond recorded windows
}

TEST(Slice, ExtractsHalfOpenWindowRange) {
  const std::vector<double> v = {0, 1, 2, 3, 4, 5};
  const auto w = SimTime::millis(50);
  const auto out = slice(v, w, SimTime::millis(100), SimTime::millis(250));
  EXPECT_EQ(out, (std::vector<double>{2, 3, 4}));
  EXPECT_TRUE(slice(v, w, SimTime::millis(250), SimTime::millis(100)).empty());
  // Clamps past-the-end.
  EXPECT_EQ(slice(v, w, SimTime::millis(250), SimTime::seconds(10)).size(), 1u);
}

TEST(MaxSum, Helpers) {
  EXPECT_DOUBLE_EQ(max_of({1.0, 5.0, 3.0}), 5.0);
  EXPECT_DOUBLE_EQ(max_of({}), 0.0);
  EXPECT_DOUBLE_EQ(sum_of({1.0, 5.0, 3.0}), 9.0);
}

TEST(Table1Header, PrintsColumns) {
  std::ostringstream os;
  print_table1_header(os);
  EXPECT_NE(os.str().find("Avg RT (ms)"), std::string::npos);
  EXPECT_NE(os.str().find("%VLRT>1s"), std::string::npos);
}

TEST(WriteSeriesCsv, RoundTrips) {
  const std::string path =
      (std::filesystem::temp_directory_path() / "ntier_report_test.csv")
          .string();
  write_series_csv(path, SimTime::millis(50), {"a", "b"},
                   {{1.0, 2.0}, {3.0}});
  std::ifstream f(path);
  std::string line;
  std::getline(f, line);
  EXPECT_EQ(line, "time_s,a,b");
  std::getline(f, line);
  EXPECT_EQ(line, "0,1,3");
  std::getline(f, line);
  EXPECT_EQ(line, "0.05,2,0");  // shorter column padded with 0
  std::remove(path.c_str());
}

TEST(BenchOptions, ParsesFlags) {
  const char* argv[] = {"bench", "--full", "--csv", "/tmp/x", "--seed", "99"};
  const auto opt = BenchOptions::parse(6, const_cast<char**>(argv));
  EXPECT_TRUE(opt.full);
  EXPECT_EQ(opt.csv_dir, "/tmp/x");
  EXPECT_EQ(opt.seed, 99u);
}

TEST(BenchOptions, ParsesEveryValueFlag) {
  const char* argv[] = {"bench",         "--quick",       "--trace",
                        "t.json",        "--trace-format", "chrome",
                        "--json",        "rows.jsonl",    "--sweep-seeds",
                        "4",             "--jobs",        "2"};
  const auto opt = BenchOptions::parse(12, const_cast<char**>(argv));
  EXPECT_TRUE(opt.quick);
  EXPECT_EQ(opt.trace_path, "t.json");
  EXPECT_EQ(opt.trace_format, obs::TraceFormat::kChrome);
  EXPECT_EQ(opt.json_path, "rows.jsonl");
  EXPECT_EQ(opt.sweep_seeds, 4);
  EXPECT_EQ(opt.jobs, 2);
}

// A bench command line it cannot honour stops the bench with status 2 and
// a named error, the way ntier_run's parser does, instead of running with
// a default the user did not ask for.
TEST(BenchOptionsDeathTest, RejectsWhatItCannotParse) {
  const auto parse = [](std::vector<const char*> args) {
    args.insert(args.begin(), "bench");
    BenchOptions::parse(static_cast<int>(args.size()),
                        const_cast<char**>(args.data()));
  };
  const auto exits_2 = ::testing::ExitedWithCode(2);
  EXPECT_EXIT(parse({"--quik"}), exits_2, "error: unknown flag --quik");
  EXPECT_EXIT(parse({"--trace-format", "xml"}), exits_2,
              "error: bad --trace-format");
  EXPECT_EXIT(parse({"--quick", "--seed"}), exits_2,
              "error: missing value for --seed");
  EXPECT_EXIT(parse({"--seed", "abc"}), exits_2, "error: bad --seed");
  EXPECT_EXIT(parse({"--sweep-seeds", "abc"}), exits_2,
              "error: bad --sweep-seeds");
  EXPECT_EXIT(parse({"--jobs", "abc"}), exits_2, "error: bad --jobs");
  EXPECT_EXIT(parse({"--jobs", "0"}), exits_2, "error: bad --jobs");
}

TEST(BenchOptions, DefaultsAndApply) {
  const char* argv[] = {"bench"};
  const auto opt = BenchOptions::parse(1, const_cast<char**>(argv));
  EXPECT_FALSE(opt.full);
  auto cfg = opt.apply(ExperimentConfig::scaled(0.1));
  EXPECT_EQ(cfg.seed, 42u);
  EXPECT_EQ(cfg.num_clients, 7'000);
}

TEST(BenchOptions, FullUpscalesToPaperScale) {
  const char* argv[] = {"bench", "--full"};
  const auto opt = BenchOptions::parse(2, const_cast<char**>(argv));
  auto cfg = opt.apply(ExperimentConfig::scaled(0.1));
  EXPECT_EQ(cfg.num_clients, 70'000);
  EXPECT_EQ(cfg.duration, sim::SimTime::seconds(180));
}

TEST(RunSummary, CapturesHeadlineNumbers) {
  auto e = testing::run(testing::quick_config(lb::PolicyKind::kCurrentLoad,
                                              lb::MechanismKind::kNonBlocking,
                                              false, SimTime::seconds(5)));
  const RunSummary s = summarize(*e);
  EXPECT_EQ(s.policy, "current_load");
  EXPECT_EQ(s.mechanism, "modified_get_endpoint");
  EXPECT_GT(s.completed, 0);
  EXPECT_GT(s.mean_rt_ms, 0.0);
  EXPECT_LE(s.p50_ms, s.p99_ms);
  EXPECT_LE(s.p99_ms, s.p999_ms);
  EXPECT_EQ(s.apache_mean_cpu.size(), 4u);
  EXPECT_EQ(s.tomcat_mean_cpu.size(), 4u);
  EXPECT_EQ(s.mysql_mean_cpu.size(), 1u);
  EXPECT_GT(s.tomcat_queue_peak, 0.0);
}

TEST(RunSummary, JsonIsWellFormedish) {
  auto e = testing::run(testing::quick_config(lb::PolicyKind::kTotalRequest,
                                              lb::MechanismKind::kBlocking,
                                              false, SimTime::seconds(5)));
  const std::string json = summarize(*e).to_json_string();
  EXPECT_EQ(json.front(), '{');
  EXPECT_EQ(json[json.size() - 2], '}');
  EXPECT_NE(json.find("\"policy\": \"total_request\""), std::string::npos);
  EXPECT_NE(json.find("\"mean_rt_ms\":"), std::string::npos);
  EXPECT_NE(json.find("\"tomcat_mean_cpu\": ["), std::string::npos);
  // Balanced braces/brackets.
  EXPECT_EQ(std::count(json.begin(), json.end(), '{'),
            std::count(json.begin(), json.end(), '}'));
  EXPECT_EQ(std::count(json.begin(), json.end(), '['),
            std::count(json.begin(), json.end(), ']'));
}

}  // namespace
}  // namespace ntier::experiment
