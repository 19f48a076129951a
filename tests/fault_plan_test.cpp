#include "millib/fault_plan.h"

#include <gtest/gtest.h>

namespace ntier::millib {
namespace {

using sim::SimTime;

TEST(FaultPlan, RandomizedIsSeedDeterministic) {
  FaultPlanConfig cfg;
  const auto a = FaultPlan::randomized(1234, cfg, 4);
  const auto b = FaultPlan::randomized(1234, cfg, 4);
  ASSERT_FALSE(a.empty());
  EXPECT_EQ(a.trace_string(), b.trace_string());

  const auto c = FaultPlan::randomized(1235, cfg, 4);
  EXPECT_NE(a.trace_string(), c.trace_string());
}

TEST(FaultPlan, RandomizedRespectsConfigBounds) {
  FaultPlanConfig cfg;
  cfg.max_faults = 6;
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    const auto plan = FaultPlan::randomized(seed, cfg, 3);
    EXPECT_LE(plan.size(), cfg.max_faults);
    for (const auto& spec : plan.specs) {
      EXPECT_GE(spec.start, cfg.initial_offset);
      EXPECT_LT(spec.start, cfg.horizon);
      EXPECT_GE(spec.duration, kMinFaultDuration);
      EXPECT_LE(spec.duration, cfg.max_duration);
      switch (spec.kind) {
        case FaultKind::kCorrelatedStall:
        case FaultKind::kLinkFault:
          EXPECT_EQ(spec.worker, -1);
          break;
        default:
          EXPECT_GE(spec.worker, 0);
          EXPECT_LT(spec.worker, 3);
          break;
      }
      if (spec.kind == FaultKind::kLinkFault) {
        EXPECT_GE(spec.loss_probability, 0.05);
        EXPECT_LE(spec.loss_probability, kMaxLossProbability);
        EXPECT_LE(spec.extra_latency, kMaxExtraLatency);
      }
      if (spec.kind == FaultKind::kPoolLeak) {
        EXPECT_EQ(spec.leak_slots, kLeakSlots);
      }
    }
  }
}

TEST(FaultPlan, ZeroWeightDisablesAKind) {
  // The KV, cache and gray kinds carry zero weight: no draw ever picks one.
  FaultPlanConfig cfg;
  cfg.max_faults = 32;
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    for (const auto& spec : FaultPlan::randomized(seed, cfg, 4).specs) {
      EXPECT_GT(kFaultKindWeights[static_cast<std::size_t>(spec.kind)], 0.0);
      EXPECT_LT(spec.kind, FaultKind::kReplicaCrash);
    }
  }
}

TEST(FaultPlan, MergeKeepsScheduleOrder) {
  FaultSpec late;
  late.kind = FaultKind::kCrash;
  late.worker = 0;
  late.start = SimTime::seconds(9);
  late.duration = SimTime::seconds(1);
  auto plan = FaultPlan::single(late);
  FaultPlan stalls;
  for (int s = 1; s < 8; s += 2) {
    FaultSpec stall;
    stall.worker = 1;
    stall.start = SimTime::seconds(s);
    stall.duration = SimTime::millis(100);
    stalls.specs.push_back(stall);
  }
  plan.merge(stalls);
  ASSERT_EQ(plan.size(), 5u);
  for (std::size_t i = 1; i < plan.size(); ++i)
    EXPECT_LE(plan.specs[i - 1].start, plan.specs[i].start);
  EXPECT_EQ(plan.specs.back().kind, FaultKind::kCrash);
}

TEST(FaultPlan, InvalidInputsThrow) {
  FaultPlanConfig cfg;
  EXPECT_THROW(FaultPlan::randomized(1, cfg, 0), std::invalid_argument);
}

TEST(FaultPlan, SpecToStringNamesEveryKind) {
  FaultSpec spec;
  spec.start = SimTime::seconds(1);
  spec.duration = SimTime::millis(100);
  for (auto kind :
       {FaultKind::kCapacityStall, FaultKind::kCorrelatedStall,
        FaultKind::kCrash, FaultKind::kLinkFault, FaultKind::kPoolLeak,
        FaultKind::kDiskDegrade, FaultKind::kReplicaCrash,
        FaultKind::kShardMigration, FaultKind::kInvalidationStorm}) {
    spec.kind = kind;
    EXPECT_NE(spec.to_string().find(to_string(kind)), std::string::npos);
  }
}

}  // namespace
}  // namespace ntier::millib
