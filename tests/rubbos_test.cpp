#include "workload/rubbos.h"

#include <gtest/gtest.h>

#include <map>

namespace ntier::workload {
namespace {

TEST(Rubbos, HasTwentyFourInteractions) {
  RubbosWorkload w;
  EXPECT_EQ(w.num_interactions(), 24u);
}

TEST(Rubbos, BrowseOnlyMixNeverDrawsWriteInteractions) {
  WorkloadParams p;
  p.mix = Mix::kBrowseOnly;
  RubbosWorkload w(p);
  sim::Rng rng(1);
  proto::RequestPool pool;
  for (int i = 0; i < 20'000; ++i) {
    auto req = w.make_request(pool, rng, static_cast<std::uint64_t>(i), 0);
    const auto& it = w.interactions()[req->interaction];
    EXPECT_GT(it.weight_browse, 0.0) << it.name;
  }
}

TEST(Rubbos, ReadWriteMixIncludesWrites) {
  WorkloadParams p;
  p.mix = Mix::kReadWrite;
  RubbosWorkload w(p);
  sim::Rng rng(2);
  proto::RequestPool pool;
  bool saw_write = false;
  for (int i = 0; i < 20'000 && !saw_write; ++i) {
    auto req = w.make_request(pool, rng, static_cast<std::uint64_t>(i), 0);
    const auto& it = w.interactions()[req->interaction];
    if (it.name == "StoreComment" || it.name == "StoreStory") saw_write = true;
  }
  EXPECT_TRUE(saw_write);
}

TEST(Rubbos, FrequenciesFollowWeights) {
  RubbosWorkload w;
  sim::Rng rng(3);
  proto::RequestPool pool;
  std::map<std::uint16_t, int> counts;
  const int n = 100'000;
  for (int i = 0; i < n; ++i)
    ++counts[w.make_request(pool, rng, static_cast<std::uint64_t>(i), 0)->interaction];
  // StoriesOfTheDay (index 0) should be the most frequent read/write entry.
  int max_idx = 0, max_count = 0;
  for (const auto& [idx, c] : counts)
    if (c > max_count) {
      max_count = c;
      max_idx = idx;
    }
  EXPECT_EQ(w.interactions()[static_cast<std::size_t>(max_idx)].name,
            "StoriesOfTheDay");
}

TEST(Rubbos, DemandsArePositiveAndJittered) {
  RubbosWorkload w;
  sim::Rng rng(4);
  proto::RequestPool pool;
  auto a = w.make_request(pool, rng, 1, 0);
  auto b = w.make_request(pool, rng, 2, 0);
  EXPECT_GT(a->apache_demand.ns(), 0);
  EXPECT_GT(a->tomcat_demand.ns(), 0);
  EXPECT_GT(a->log_bytes, 0u);
  // Lognormal jitter: two draws of (even the same) interaction differ.
  EXPECT_TRUE(a->tomcat_demand != b->tomcat_demand ||
              a->apache_demand != b->apache_demand);
}

TEST(Rubbos, QueryCacheSplitsMySqlDemand) {
  WorkloadParams p;
  p.query_cache_hit = 0.5;
  RubbosWorkload w(p);
  sim::Rng rng(5);
  proto::RequestPool pool;
  int hits = 0, misses = 0;
  for (int i = 0; i < 20'000; ++i) {
    auto req = w.make_request(pool, rng, static_cast<std::uint64_t>(i), 0);
    if (req->db_queries == 0) continue;
    if (req->mysql_demand <= sim::SimTime::from_millis(kMySqlHitDemandMs))
      ++hits;
    else
      ++misses;
  }
  const double frac = static_cast<double>(hits) / (hits + misses);
  EXPECT_NEAR(frac, 0.5, 0.03);
}

TEST(Rubbos, DemandScaleMultipliesDemands) {
  WorkloadParams p1, p2;
  p2.demand_scale = 2.0;
  RubbosWorkload w1(p1), w2(p2);
  EXPECT_NEAR(w2.mean_tomcat_demand_ms(), 2.0 * w1.mean_tomcat_demand_ms(),
              1e-9);
  EXPECT_NEAR(w2.mean_apache_demand_ms(), 2.0 * w1.mean_apache_demand_ms(),
              1e-9);
}

TEST(Rubbos, MeanDemandsMatchCalibrationBand) {
  RubbosWorkload w;
  // Calibrated so 2 500 req/s on a 4-core node sits in the paper's 30-45 %
  // utilisation band.
  EXPECT_GT(w.mean_tomcat_demand_ms(), 0.4);
  EXPECT_LT(w.mean_tomcat_demand_ms(), 0.8);
  EXPECT_GT(w.mean_apache_demand_ms(), 0.3);
  EXPECT_LT(w.mean_apache_demand_ms(), 0.7);
  EXPECT_GT(w.mean_log_bytes(), 800.0);
  EXPECT_LT(w.mean_log_bytes(), 2000.0);
}

TEST(Rubbos, RequestCarriesIdentity) {
  RubbosWorkload w;
  sim::Rng rng(6);
  proto::RequestPool pool;
  auto req = w.make_request(pool, rng, 77, 5);
  EXPECT_EQ(req->id, 77u);
  EXPECT_EQ(req->client, 5);
  EXPECT_EQ(req->apache_id, -1);
  EXPECT_EQ(req->tomcat_id, -1);
}

}  // namespace
}  // namespace ntier::workload
