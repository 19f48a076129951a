// Pins every per-window figure series an Experiment exposes — CPU per node,
// Tomcat iowait, the tier queues, per-Tomcat committed, per-balancer
// lb_value and assignment counts, the Tomcat dirty-page gauges and the
// RequestLog rt/VLRT series — to FNV-1a digests in
// tests/golden/figure_series.fnv. A missed finish, a reordered probe or a
// dropped window changes a digest. The KV+cache row also hashes the event
// trace, which pins the order of the periodic kIoWait samples. With
// config.tracing off no figure series exists at all.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <map>
#include <sstream>
#include <stdexcept>
#include <string>
#include <utility>

#include "experiment/experiment.h"
#include "experiment/report.h"
#include "obs/trace_io.h"
#include "test_util.h"

namespace ntier::experiment {
namespace {

using sim::SimTime;

class Fnv {
 public:
  void add(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h_ ^= (v >> (8 * i)) & 0xff;
      h_ *= 1099511628211ull;
    }
  }
  void add(double v) {
    std::uint64_t bits;
    std::memcpy(&bits, &v, sizeof bits);
    add(bits);
  }
  void add(const std::string& s) {
    for (unsigned char c : s) {
      h_ ^= c;
      h_ *= 1099511628211ull;
    }
  }
  void add(const std::vector<double>& v) {
    add(static_cast<std::uint64_t>(v.size()));
    for (double x : v) add(x);
  }
  void add(const metrics::TimeSeries& s) {
    add(static_cast<std::uint64_t>(s.num_windows()));
    for (std::size_t w = 0; w < s.num_windows(); ++w) {
      add(static_cast<std::uint64_t>(s.count(w)));
      add(s.sum(w));
      add(s.min(w));
      add(s.max(w));
    }
  }
  void add(const metrics::GaugeSeries& g) {
    add(static_cast<std::uint64_t>(g.num_windows()));
    for (std::size_t w = 0; w < g.num_windows(); ++w) {
      add(g.max(w));
      add(g.time_avg(w));
    }
  }
  std::string hex() const {
    char out[17];
    std::snprintf(out, sizeof out, "%016llx",
                  static_cast<unsigned long long>(h_));
    return out;
  }

 private:
  std::uint64_t h_ = 14695981039346656037ull;
};

std::string series_digest(Experiment& e) {
  Fnv h;
  const std::pair<obs::Tier, int> nodes[] = {
      {obs::Tier::kApache, e.num_apaches()},
      {obs::Tier::kTomcat, e.num_tomcats()},
      {obs::Tier::kMysql, e.num_mysql()},
      {obs::Tier::kKv, e.num_kv_replicas()},
      {obs::Tier::kCache, e.num_cache_nodes()}};
  for (const auto& [tier, count] : nodes)
    for (int i = 0; i < count; ++i) h.add(e.cpu_series(tier, i));
  for (int i = 0; i < e.num_tomcats(); ++i) h.add(e.tomcat_iowait_series(i));
  h.add(e.apache_tier_queue());
  h.add(e.tomcat_tier_queue());
  h.add(e.mysql_tier_queue());
  h.add(e.kv_tier_queue());
  for (int t = 0; t < e.num_tomcats(); ++t) h.add(e.tomcat_committed_series(t));
  for (int a = 0; a < e.num_apaches(); ++a) {
    const auto& bal = e.balancer_series(a);
    for (int t = 0; t < e.num_tomcats(); ++t) {
      h.add(bal.lb_value[t]);
      h.add(bal.assignments[t]);
    }
  }
  for (int i = 0; i < e.num_tomcats(); ++i)
    h.add(e.tomcat_dirty_series(i));
  h.add(e.log().response_time_series());
  h.add(e.log().vlrt_series());
  return h.hex();
}

ExperimentConfig cluster() {
  ExperimentConfig c = ExperimentConfig::scaled(0.1);
  c.duration = SimTime::seconds(20);
  c.warmup = SimTime::seconds(2);
  return c;
}

ExperimentConfig single() {
  ExperimentConfig c = ExperimentConfig::single_node();
  c.duration = SimTime::seconds(20);
  c.warmup = SimTime::seconds(2);
  return c;
}

ExperimentConfig kv_cache() {
  ExperimentConfig c;
  c.num_apaches = 2;
  c.num_tomcats = 3;
  c.num_clients = 300;
  c.think_mean = SimTime::millis(200);
  c.duration = SimTime::seconds(10);
  c.warmup = SimTime::millis(500);
  c.db_tier = server::DbTier::kKv;
  c.kv.replicas = 5;
  c.workload.key_space = 10'000;
  c.workload.zipf_s = 1.1;
  c.mysql_millibottlenecks = true;  // pdflush on the KV replica nodes
  c.cache_tier = true;
  c.cache.nodes = 2;
  c.event_trace = true;
  c.trace_capacity = 1u << 18;
  c.online_detect = true;
  return c;
}

std::map<std::string, std::string> golden() {
  std::ifstream in(std::string(NTIER_GOLDEN_DIR) + "/figure_series.fnv");
  EXPECT_TRUE(in.good());
  std::map<std::string, std::string> out;
  for (std::string line; std::getline(in, line);) {
    if (line.empty() || line[0] == '#') continue;
    std::istringstream row(line);
    std::string name, digest;
    row >> name >> digest;
    out[name] = digest;
  }
  return out;
}

TEST(FigureSeries, ClusterWithPdflushMatchesGolden) {
  auto e = testing::run(cluster());
  EXPECT_EQ(series_digest(*e), golden()["cluster"]);
}

TEST(FigureSeries, SingleNodeMatchesGolden) {
  auto e = testing::run(single());
  EXPECT_EQ(series_digest(*e), golden()["single_node"]);
}

TEST(FigureSeries, KvCacheSeriesAndTraceMatchGolden) {
  auto e = testing::run(kv_cache());
  EXPECT_EQ(series_digest(*e), golden()["kv_cache"]);
  std::ostringstream jsonl;
  obs::write_jsonl(jsonl, *e->trace());
  Fnv h;
  h.add(jsonl.str());
  EXPECT_EQ(h.hex(), golden()["kv_cache_trace"]);
  for (const char* tier : {"tomcat", "apache", "kv"})
    EXPECT_NE(jsonl.str().find(std::string("\"kind\":\"iowait\",\"tier\":\"") +
                               tier + "\""),
              std::string::npos)
        << tier;
  EXPECT_EQ(jsonl.str().find("\"kind\":\"iowait\",\"tier\":\"cache\""),
            std::string::npos);
}

TEST(FigureSeries, TracingOffAllocatesNone) {
  ExperimentConfig c = cluster();
  c.duration = SimTime::seconds(3);
  c.tracing = false;
  auto e = testing::run(c);
  EXPECT_THROW(e->cpu_series(obs::Tier::kTomcat, 0), std::out_of_range);
  EXPECT_THROW(e->balancer_series(0), std::out_of_range);
  EXPECT_EQ(max_of(e->apache_tier_queue()), 0.0);
  EXPECT_EQ(max_of(e->tomcat_tier_queue()), 0.0);
  EXPECT_GT(e->log().completed(), 0);
}

}  // namespace
}  // namespace ntier::experiment
