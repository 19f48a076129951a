#include "experiment/config.h"

#include <gtest/gtest.h>

#include <memory>

namespace ntier::experiment {
namespace {

TEST(Config, StallSourceNames) {
  EXPECT_EQ(to_string(StallSource::kPdflush), "pdflush");
  EXPECT_EQ(to_string(StallSource::kGcPause), "gc_pause");
  EXPECT_EQ(to_string(StallSource::kDvfs), "dvfs");
  EXPECT_EQ(to_string(StallSource::kVmConsolidation), "vm_consolidation");
}

TEST(Config, DescribeMentionsEnvironment) {
  ExperimentConfig c = ExperimentConfig::scaled(0.1);
  c.tomcat_stall_source = StallSource::kGcPause;
  c.num_mysql = 2;
  c.sticky_sessions = true;
  c.bursty_workload = true;
  const std::string d = describe(c);
  EXPECT_NE(d.find("tomcat(gc_pause)"), std::string::npos);
  EXPECT_NE(d.find("2 DB replicas"), std::string::npos);
  EXPECT_NE(d.find("sticky"), std::string::npos);
  EXPECT_NE(d.find("bursty"), std::string::npos);
}

TEST(Config, DescribePristineEnvironment) {
  ExperimentConfig c = ExperimentConfig::scaled(0.1);
  c.tomcat_millibottlenecks = false;
  const std::string d = describe(c);
  EXPECT_NE(d.find("millibottlenecks=none"), std::string::npos);
  EXPECT_EQ(d.find("sticky"), std::string::npos);
}

TEST(Config, DescribeShowsTheReplayedTraceNotTheIdlePopulation) {
  ExperimentConfig c = ExperimentConfig::scaled(0.1);
  auto trace = std::make_shared<workload::ArrivalTrace>();
  for (int i = 1; i <= 600; ++i)
    trace->add(sim::SimTime::millis(5 * i), static_cast<std::uint32_t>(i), 0);
  c.replay_trace = trace;
  const std::string d = describe(c);
  // 600 arrivals over 3 s: the header reports the trace, not "7000 clients,
  // think 700ms" from the population a replay idles.
  EXPECT_NE(d.find("600 arrivals (200 req/s mean)"), std::string::npos) << d;
  EXPECT_EQ(d.find("clients"), std::string::npos) << d;
  EXPECT_EQ(d.find("think"), std::string::npos) << d;
}

TEST(Config, ScaledPreservesOfferedLoad) {
  for (double f : {0.05, 0.1, 0.5, 1.0}) {
    const auto c = ExperimentConfig::scaled(f);
    EXPECT_NEAR(c.offered_rps(), 10'000.0, 15.0) << f;
  }
}

TEST(Config, SingleNodeQuartersTheLoad) {
  const auto c = ExperimentConfig::single_node(0.1);
  EXPECT_EQ(c.num_apaches, 1);
  EXPECT_EQ(c.num_tomcats, 1);
  EXPECT_NEAR(c.offered_rps(), 2'500.0, 10.0);
  EXPECT_TRUE(c.apache_millibottlenecks);
}

TEST(Config, PaperScaleMatchesThePaper) {
  const auto c = ExperimentConfig::paper_scale();
  EXPECT_EQ(c.num_clients, 70'000);
  EXPECT_EQ(c.think_mean, sim::SimTime::seconds(7));
  EXPECT_EQ(c.duration, sim::SimTime::seconds(180));
  // ~1.8 M requests over the run, as in Table I.
  EXPECT_NEAR(c.offered_rps() * c.duration.to_seconds(), 1.8e6, 1e5);
}

TEST(Config, DefaultKnobsMatchTableIII) {
  const ExperimentConfig c;
  EXPECT_EQ(c.apache.max_clients, 200);
  EXPECT_EQ(c.tomcat.max_threads, 210);
  EXPECT_EQ(c.db_router.pool_per_replica, 48u);
  EXPECT_EQ(c.balancer.blocking.acquire_timeout, sim::SimTime::millis(300));
  EXPECT_EQ(c.balancer.blocking.sleep_interval, sim::SimTime::millis(100));
}

}  // namespace
}  // namespace ntier::experiment
