// Property-style sweeps (TEST_P) over policy × mechanism × seed: invariants
// that must hold for *every* combination, not just the paper's headline
// configurations.
#include <gtest/gtest.h>

#include <string>
#include <tuple>

#include "experiment/experiment.h"
#include "experiment/report.h"
#include "test_util.h"

namespace ntier::experiment {
namespace {

using lb::MechanismKind;
using lb::PolicyKind;
using sim::SimTime;

using Combo = std::tuple<PolicyKind, MechanismKind, std::uint64_t>;

std::string combo_name(const ::testing::TestParamInfo<Combo>& param_info) {
  return lb::to_string(std::get<0>(param_info.param)) + "_" +
         (std::get<1>(param_info.param) == MechanismKind::kBlocking
              ? "blocking"
              : "modified") +
         "_s" + std::to_string(std::get<2>(param_info.param));
}

class PolicyMechanismSweep : public ::testing::TestWithParam<Combo> {
 protected:
  static ExperimentConfig config_for(const Combo& combo, bool millib = true) {
    auto c = testing::quick_config(std::get<0>(combo), std::get<1>(combo),
                                   millib, SimTime::seconds(8));
    c.seed = std::get<2>(combo);
    return c;
  }
};

TEST_P(PolicyMechanismSweep, RequestsAreConserved) {
  auto e = testing::run(config_for(GetParam()));
  const auto& cl = e->clients();
  EXPECT_EQ(cl.issued(),
            cl.completed_ok() + cl.failed() + cl.dropped() + cl.in_flight());
}

TEST_P(PolicyMechanismSweep, BalancerAccountingIsConsistent) {
  auto e = testing::run(config_for(GetParam()));
  for (int a = 0; a < e->num_apaches(); ++a) {
    const auto& bal = e->apache(a).balancer();
    for (int t = 0; t < e->num_tomcats(); ++t) {
      const auto& rec = bal.record(t);
      EXPECT_EQ(rec.assigned,
                rec.completed + static_cast<std::uint64_t>(rec.outstanding))
          << "apache " << a << " tomcat " << t;
      EXPECT_GE(rec.committed, rec.outstanding);
      EXPECT_LE(static_cast<std::size_t>(rec.outstanding),
                bal.config().endpoint_pool_size);
      EXPECT_EQ(bal.pool(t).in_use(),
                static_cast<std::size_t>(rec.outstanding));
    }
  }
}

TEST_P(PolicyMechanismSweep, EveryTomcatServesSomeTraffic) {
  auto e = testing::run(config_for(GetParam()));
  for (int t = 0; t < e->num_tomcats(); ++t)
    EXPECT_GT(e->tomcat(t).served(), 0u) << t;
}

TEST_P(PolicyMechanismSweep, CleanEnvironmentMeansNoVlrtAndNoDrops) {
  auto e = testing::run(config_for(GetParam(), /*millib=*/false));
  EXPECT_EQ(e->clients().connection_drops(), 0u);
  EXPECT_LT(e->log().vlrt_fraction(), 1e-4);
  EXPECT_LT(e->log().mean_response_ms(), 10.0);
}

INSTANTIATE_TEST_SUITE_P(
    Combos, PolicyMechanismSweep,
    ::testing::Combine(
        ::testing::Values(PolicyKind::kTotalRequest, PolicyKind::kTotalTraffic,
                          PolicyKind::kCurrentLoad, PolicyKind::kRoundRobin,
                          PolicyKind::kTwoChoices),
        ::testing::Values(MechanismKind::kBlocking, MechanismKind::kNonBlocking),
        ::testing::Values(42u)),
    combo_name);

// The current_load bookkeeping identity, over the current_load combos only.
class CurrentLoadSweep : public PolicyMechanismSweep {};

TEST_P(CurrentLoadSweep, LbValueMatchesOutstanding) {
  auto e = testing::run(config_for(GetParam()));
  for (int a = 0; a < e->num_apaches(); ++a)
    for (int t = 0; t < e->num_tomcats(); ++t) {
      const auto& rec = e->apache(a).balancer().record(t);
      EXPECT_DOUBLE_EQ(rec.lb_value, static_cast<double>(rec.outstanding));
    }
}

INSTANTIATE_TEST_SUITE_P(
    Combos, CurrentLoadSweep,
    ::testing::Combine(
        ::testing::Values(PolicyKind::kCurrentLoad),
        ::testing::Values(MechanismKind::kBlocking, MechanismKind::kNonBlocking),
        ::testing::Values(42u)),
    combo_name);

// -- seed sweep: the paired remedy-beats-stock property ----------------------

class SeedSweep : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(SeedSweep, RemedyNeverLosesToStock) {
  auto stock_cfg = testing::quick_config(PolicyKind::kTotalRequest,
                                         MechanismKind::kBlocking, true,
                                         SimTime::seconds(10));
  stock_cfg.seed = GetParam();
  auto remedy_cfg = testing::quick_config(PolicyKind::kCurrentLoad,
                                          MechanismKind::kBlocking, true,
                                          SimTime::seconds(10));
  remedy_cfg.seed = GetParam();
  auto stock = testing::run(std::move(stock_cfg));
  auto remedy = testing::run(std::move(remedy_cfg));
  EXPECT_LE(remedy->log().vlrt_fraction(), stock->log().vlrt_fraction());
  EXPECT_LE(remedy->log().mean_response_ms(),
            stock->log().mean_response_ms());
}

INSTANTIATE_TEST_SUITE_P(Seeds, SeedSweep, ::testing::Values(1u, 7u, 1234u));

}  // namespace
}  // namespace ntier::experiment
