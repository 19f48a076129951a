// Verifies the simulated testbed sits at the paper's operating point in the
// absence of millibottlenecks (paper §II-B): mean response time in the low
// milliseconds, a negligible number of VLRT requests, every server well
// below saturation, and an even workload distribution across the Tomcats.
#include <gtest/gtest.h>

#include <algorithm>

#include "experiment/experiment.h"
#include "experiment/report.h"
#include "test_util.h"

namespace ntier::experiment {
namespace {

using lb::MechanismKind;
using lb::PolicyKind;
using sim::SimTime;

class CalibrationTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    auto c = testing::quick_config(PolicyKind::kTotalRequest,
                                   MechanismKind::kBlocking,
                                   /*millibottlenecks=*/false,
                                   SimTime::seconds(20));
    exp_ = testing::run(std::move(c)).release();
  }
  static void TearDownTestSuite() {
    delete exp_;
    exp_ = nullptr;
  }
  static Experiment* exp_;
};

Experiment* CalibrationTest::exp_ = nullptr;

TEST_F(CalibrationTest, BaselineMeanResponseTimeIsLowMilliseconds) {
  // Paper: 3.2 ms average under total_request with millibottlenecks removed.
  EXPECT_GT(exp_->log().mean_response_ms(), 1.0);
  EXPECT_LT(exp_->log().mean_response_ms(), 8.0);
}

TEST_F(CalibrationTest, BaselineHasNegligibleVlrt) {
  // Paper: 13 VLRT requests out of 1.8 M (≈0.0007 %).
  EXPECT_LT(exp_->log().vlrt_fraction(), 1e-4);
}

TEST_F(CalibrationTest, MostRequestsAreNormal) {
  // Paper Table I: ≈89-97 % of requests complete in under 10 ms.
  EXPECT_GT(exp_->log().normal_fraction(), 0.85);
}

TEST_F(CalibrationTest, NoServerSaturates) {
  // Paper Fig. 5: the highest average CPU among servers is 45 %.
  for (int i = 0; i < exp_->num_apaches(); ++i)
    EXPECT_LT(exp_->mean_cpu(exp_->cpu_series(obs::Tier::kApache, i)), 0.6) << "apache" << i;
  for (int i = 0; i < exp_->num_tomcats(); ++i)
    EXPECT_LT(exp_->mean_cpu(exp_->cpu_series(obs::Tier::kTomcat, i)), 0.6) << "tomcat" << i;
  EXPECT_LT(exp_->mean_cpu(exp_->cpu_series(obs::Tier::kMysql, 0)), 0.6);
}

TEST_F(CalibrationTest, ServersAreNotIdleEither) {
  // The operating point is "moderate utilisation", not an idle system.
  EXPECT_GT(exp_->mean_cpu(exp_->cpu_series(obs::Tier::kTomcat, 0)), 0.10);
  EXPECT_GT(exp_->mean_cpu(exp_->cpu_series(obs::Tier::kApache, 0)), 0.10);
}

TEST_F(CalibrationTest, WorkloadSpreadEvenlyAcrossTomcats) {
  // Paper §II-B: "Apache server distributed the workload evenly among the
  // Tomcat servers".
  std::vector<std::uint64_t> per_tomcat(4, 0);
  for (int a = 0; a < exp_->num_apaches(); ++a)
    for (int t = 0; t < 4; ++t)
      per_tomcat[static_cast<std::size_t>(t)] +=
          exp_->apache(a).balancer().record(t).assigned;
  const auto [mn, mx] = std::minmax_element(per_tomcat.begin(), per_tomcat.end());
  EXPECT_GT(*mn, 0u);
  EXPECT_LT(static_cast<double>(*mx - *mn) / static_cast<double>(*mx), 0.02);
}

TEST_F(CalibrationTest, NoDropsWithoutMillibottlenecks) {
  EXPECT_EQ(exp_->clients().connection_drops(), 0u);
  EXPECT_EQ(exp_->clients().dropped(), 0u);
  EXPECT_EQ(exp_->clients().failed(), 0u);
}

TEST_F(CalibrationTest, QueuesStayShallow) {
  // Fig. 1's flat response time implies shallow queues: two orders of
  // magnitude below the >1000-deep funnels seen under millibottlenecks.
  EXPECT_LT(max_of(exp_->tomcat_tier_queue()), 150.0);
  EXPECT_LT(max_of(exp_->mysql_tier_queue()), 150.0);
}

}  // namespace
}  // namespace ntier::experiment
