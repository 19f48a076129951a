#include "experiment/experiment.h"

#include <gtest/gtest.h>

#include "experiment/report.h"
#include "test_util.h"

namespace ntier::experiment {
namespace {

using lb::MechanismKind;
using lb::PolicyKind;
using sim::SimTime;

TEST(ExperimentConfig, PresetsDescribeThemselves) {
  const auto paper = ExperimentConfig::paper_scale();
  EXPECT_EQ(paper.num_clients, 70'000);
  EXPECT_NEAR(paper.offered_rps(), 10'000.0, 1.0);

  const auto scaled = ExperimentConfig::scaled(0.1);
  EXPECT_EQ(scaled.num_clients, 7'000);
  EXPECT_NEAR(scaled.offered_rps(), paper.offered_rps(), 1.0);

  const auto single = ExperimentConfig::single_node();
  EXPECT_EQ(single.num_apaches, 1);
  EXPECT_EQ(single.num_tomcats, 1);
  EXPECT_TRUE(single.apache_millibottlenecks);

  EXPECT_NE(describe(paper).find("70000 clients"), std::string::npos);
  EXPECT_NE(describe(paper).find("total_request"), std::string::npos);
}

TEST(Experiment, BuildsPaperTopology) {
  auto c = testing::quick_config(PolicyKind::kTotalRequest,
                                 MechanismKind::kBlocking, false,
                                 SimTime::seconds(1));
  Experiment e(std::move(c));
  EXPECT_EQ(e.num_apaches(), 4);
  EXPECT_EQ(e.num_tomcats(), 4);
  EXPECT_EQ(e.apache(0).balancer().num_workers(), 4);
  EXPECT_EQ(e.tomcat_node(0).name(), "tomcat1");
}

TEST(Experiment, RequestConservation) {
  auto e = testing::run(testing::quick_config(
      PolicyKind::kTotalRequest, MechanismKind::kBlocking, true,
      SimTime::seconds(10)));
  const auto& cl = e->clients();
  EXPECT_EQ(cl.issued(),
            cl.completed_ok() + cl.failed() + cl.dropped() + cl.in_flight());
  EXPECT_GT(cl.completed_ok(), 0u);
  // In-flight at the end of a run is at most the whole client population.
  EXPECT_LE(cl.in_flight(), 7'000u);
}

TEST(Experiment, ThroughputNearOfferedLoad) {
  auto e = testing::run(testing::quick_config(
      PolicyKind::kCurrentLoad, MechanismKind::kNonBlocking, false,
      SimTime::seconds(10)));
  const double rate =
      static_cast<double>(e->clients().completed_ok()) / 10.0;
  EXPECT_NEAR(rate, e->config().offered_rps(), e->config().offered_rps() * 0.1);
}

TEST(Experiment, RunTwiceThrows) {
  auto c = testing::quick_config(PolicyKind::kTotalRequest,
                                 MechanismKind::kBlocking, false,
                                 SimTime::seconds(1));
  Experiment e(std::move(c));
  e.run();
  EXPECT_THROW(e.run(), std::logic_error);
}

TEST(Experiment, DeterministicForSeed) {
  auto c1 = testing::quick_config(PolicyKind::kTotalRequest,
                                  MechanismKind::kBlocking, true,
                                  SimTime::seconds(8));
  auto c2 = c1;
  auto e1 = testing::run(std::move(c1));
  auto e2 = testing::run(std::move(c2));
  EXPECT_EQ(e1->clients().issued(), e2->clients().issued());
  EXPECT_EQ(e1->log().completed(), e2->log().completed());
  EXPECT_DOUBLE_EQ(e1->log().mean_response_ms(), e2->log().mean_response_ms());
  EXPECT_EQ(e1->log().vlrt_count(), e2->log().vlrt_count());
}

TEST(Experiment, SeedChangesRun) {
  auto c1 = testing::quick_config(PolicyKind::kTotalRequest,
                                  MechanismKind::kBlocking, true,
                                  SimTime::seconds(8));
  auto c2 = c1;
  c2.seed = 43;
  auto e1 = testing::run(std::move(c1));
  auto e2 = testing::run(std::move(c2));
  EXPECT_NE(e1->log().mean_response_ms(), e2->log().mean_response_ms());
}

TEST(Experiment, TierQueueSeriesHaveExpectedLength) {
  auto e = testing::run(testing::quick_config(
      PolicyKind::kTotalRequest, MechanismKind::kBlocking, true,
      SimTime::seconds(10)));
  const auto windows = e->num_metric_windows();
  EXPECT_EQ(windows, 200u);  // 10 s / 50 ms
  EXPECT_EQ(e->apache_tier_queue().size(), windows);
  EXPECT_EQ(e->tomcat_tier_queue().size(), windows);
  EXPECT_EQ(e->mysql_tier_queue().size(), windows);
  EXPECT_GT(max_of(e->tomcat_tier_queue()), 0.0);
}

TEST(Experiment, SamplersCoverTheRun) {
  auto e = testing::run(testing::quick_config(
      PolicyKind::kTotalRequest, MechanismKind::kBlocking, false,
      SimTime::seconds(5)));
  EXPECT_GE(e->cpu_series(obs::Tier::kTomcat, 0).total_count(), 99);
  EXPECT_GE(e->cpu_series(obs::Tier::kApache, 0).total_count(), 99);
  EXPECT_GE(e->cpu_series(obs::Tier::kMysql, 0).total_count(), 99);
}

TEST(Experiment, PdflushEpisodesExistExactlyWhenEnabled) {
  auto on = testing::run(testing::quick_config(
      PolicyKind::kTotalRequest, MechanismKind::kBlocking, true,
      SimTime::seconds(12)));
  bool any = false;
  for (int t = 0; t < on->num_tomcats(); ++t)
    any |= !on->flush_intervals(t).empty();
  EXPECT_TRUE(any);

  auto off = testing::run(testing::quick_config(
      PolicyKind::kTotalRequest, MechanismKind::kBlocking, false,
      SimTime::seconds(12)));
  for (int t = 0; t < off->num_tomcats(); ++t)
    EXPECT_TRUE(off->flush_intervals(t).empty());
}

TEST(Experiment, FlushesAreStaggeredAcrossTomcats) {
  auto e = testing::run(testing::quick_config(
      PolicyKind::kCurrentLoad, MechanismKind::kNonBlocking, true,
      SimTime::seconds(12)));
  std::vector<double> first_starts;
  for (int t = 0; t < e->num_tomcats(); ++t) {
    const auto iv = e->flush_intervals(t);
    if (!iv.empty()) first_starts.push_back(iv.front().first.to_seconds());
  }
  ASSERT_GE(first_starts.size(), 2u);
  for (std::size_t i = 1; i < first_starts.size(); ++i)
    EXPECT_GT(std::abs(first_starts[i] - first_starts[0]), 0.5);
}

}  // namespace
}  // namespace ntier::experiment
