#include "lb/policy.h"

#include <gtest/gtest.h>

#include "test_util.h"

namespace ntier::lb {
namespace {

using testing::all_of;
using testing::set_of;

proto::Request req_with_bytes(std::uint32_t in, std::uint32_t out) {
  proto::Request r;
  r.request_bytes = in;
  r.response_bytes = out;
  return r;
}

std::vector<WorkerRecord> make_records(int n) {
  std::vector<WorkerRecord> recs(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) recs[static_cast<std::size_t>(i)].tomcat_id = i;
  return recs;
}

constexpr PolicyKind kAllKinds[] = {
    PolicyKind::kTotalRequest, PolicyKind::kTotalTraffic,
    PolicyKind::kCurrentLoad,  PolicyKind::kSessions,
    PolicyKind::kRoundRobin,   PolicyKind::kRandom,
    PolicyKind::kTwoChoices,   PolicyKind::kPowerOfD,
    PolicyKind::kPrequal};

TEST(Policy, FactoryRoundTrips) {
  for (auto kind : kAllKinds) {
    auto p = make_policy(kind);
    EXPECT_EQ(p->kind(), kind);
    EXPECT_FALSE(p->name().empty());
  }
}

TEST(Policy, StringRoundTripsForEveryKind) {
  // to_string -> policy_from_string is the identity for every PolicyKind:
  // the CLI's single parse point must accept exactly what we print.
  for (auto kind : kAllKinds) {
    const std::string name = to_string(kind);
    EXPECT_NE(name, "?");
    const auto back = policy_from_string(name);
    ASSERT_TRUE(back.has_value()) << name;
    EXPECT_EQ(*back, kind);
  }
  // The documented alias and the failure path.
  EXPECT_EQ(policy_from_string("po2d"), PolicyKind::kPowerOfD);
  EXPECT_FALSE(policy_from_string("fastest").has_value());
  EXPECT_FALSE(policy_from_string("").has_value());
}

TEST(Policy, ProbeAwarenessIsLimitedToTheProbeFamily) {
  for (auto kind : kAllKinds) {
    const bool expect = kind == PolicyKind::kPowerOfD ||
                        kind == PolicyKind::kPrequal;
    EXPECT_EQ(policy_uses_probes(kind), expect) << to_string(kind);
  }
}

TEST(Policy, DefaultPickChoosesLowestLbValueFirstOnTies) {
  auto recs = make_records(4);
  sim::Rng rng(1);
  TotalRequestPolicy p;
  EXPECT_EQ(p.pick(recs, all_of(recs), rng), 0);  // all zero -> first
  recs[0].lb_value = 5;
  recs[2].lb_value = 1;
  EXPECT_EQ(p.pick(recs, all_of(recs), rng), 1);  // 0 at index 1 and 3: first wins
  recs[1].lb_value = 2;
  recs[3].lb_value = 2;
  EXPECT_EQ(p.pick(recs, all_of(recs), rng), 2);
}

TEST(Policy, PickRespectsEligibleSubset) {
  auto recs = make_records(4);
  recs[0].lb_value = 0;
  recs[1].lb_value = 1;
  recs[2].lb_value = 2;
  sim::Rng rng(1);
  TotalRequestPolicy p;
  EXPECT_EQ(p.pick(recs, set_of(recs, {1, 2}), rng), 1);
  EXPECT_EQ(p.pick(recs, set_of(recs, {}), rng), -1);
}

TEST(Policy, TotalRequestIncrementsOnAssignOnly) {
  auto recs = make_records(1);
  TotalRequestPolicy p;
  proto::Request r;
  p.on_assigned(recs[0], r);
  EXPECT_DOUBLE_EQ(recs[0].lb_value, 1.0);
  p.on_completed(recs[0], r);
  EXPECT_DOUBLE_EQ(recs[0].lb_value, 1.0);  // completion is a no-op
}

TEST(Policy, TotalTrafficIncrementsOnCompletionWithBytes) {
  auto recs = make_records(1);
  TotalTrafficPolicy p;
  auto r = req_with_bytes(400, 1600);
  p.on_assigned(recs[0], r);
  EXPECT_DOUBLE_EQ(recs[0].lb_value, 0.0);  // assignment is a no-op
  p.on_completed(recs[0], r);
  EXPECT_DOUBLE_EQ(recs[0].lb_value, 2000.0);
}

TEST(Policy, CurrentLoadTracksOutstanding) {
  auto recs = make_records(1);
  CurrentLoadPolicy p;
  proto::Request r;
  p.on_assigned(recs[0], r);
  p.on_assigned(recs[0], r);
  EXPECT_DOUBLE_EQ(recs[0].lb_value, 2.0);
  p.on_completed(recs[0], r);
  EXPECT_DOUBLE_EQ(recs[0].lb_value, 1.0);
  p.on_completed(recs[0], r);
  EXPECT_DOUBLE_EQ(recs[0].lb_value, 0.0);
  p.on_completed(recs[0], r);  // Algorithm 4 floors at zero
  EXPECT_DOUBLE_EQ(recs[0].lb_value, 0.0);
}

TEST(Policy, FrozenLbValueAttractsAllPicks) {
  // The §V-A failure mode in miniature: worker 0 stalls (its lb_value stops
  // moving) while the others advance; every pick lands on worker 0.
  auto recs = make_records(4);
  sim::Rng rng(1);
  TotalRequestPolicy p;
  proto::Request r;
  for (auto& rec : recs) rec.lb_value = 100;
  for (int i = 0; i < 50; ++i) {
    const int k = p.pick(recs, all_of(recs), rng);
    if (k != 0) p.on_assigned(recs[static_cast<std::size_t>(k)], r);
    // worker 0's assignment "hangs": no lb_value update
  }
  for (int i = 0; i < 10; ++i)
    EXPECT_EQ(p.pick(recs, all_of(recs), rng), 0);
}

TEST(Policy, CurrentLoadAvoidsStalledWorker) {
  // Same scenario under the remedy: worker 0's outstanding grows since
  // completions stop; picks immediately move elsewhere.
  auto recs = make_records(4);
  sim::Rng rng(1);
  CurrentLoadPolicy p;
  proto::Request r;
  int stalled_picks = 0;
  for (int i = 0; i < 100; ++i) {
    const int k = p.pick(recs, all_of(recs), rng);
    p.on_assigned(recs[static_cast<std::size_t>(k)], r);
    if (k == 0) {
      ++stalled_picks;  // worker 0 never completes
    } else {
      p.on_completed(recs[static_cast<std::size_t>(k)], r);  // healthy: instant
    }
  }
  EXPECT_LE(stalled_picks, 2);  // picked at most until its lb_value rose
}

TEST(Policy, SessionsCountsOnlyNewSessions) {
  auto recs = make_records(1);
  SessionsPolicy p;
  proto::Request fresh;                 // no route: a new session
  proto::Request returning;
  returning.session_route = 0;          // already owned
  p.on_assigned(recs[0], fresh);
  EXPECT_DOUBLE_EQ(recs[0].lb_value, 1.0);
  p.on_assigned(recs[0], returning);
  EXPECT_DOUBLE_EQ(recs[0].lb_value, 1.0);  // returning visits are free
  p.on_completed(recs[0], fresh);
  EXPECT_DOUBLE_EQ(recs[0].lb_value, 1.0);
}

TEST(Policy, RoundRobinCycles) {
  auto recs = make_records(3);
  sim::Rng rng(1);
  RoundRobinPolicy p;
  EXPECT_EQ(p.pick(recs, all_of(recs), rng), 0);
  EXPECT_EQ(p.pick(recs, all_of(recs), rng), 1);
  EXPECT_EQ(p.pick(recs, all_of(recs), rng), 2);
  EXPECT_EQ(p.pick(recs, all_of(recs), rng), 0);
}

TEST(Policy, RandomIsUniformish) {
  auto recs = make_records(4);
  sim::Rng rng(7);
  RandomPolicy p;
  std::vector<int> counts(4, 0);
  for (int i = 0; i < 10'000; ++i)
    ++counts[static_cast<std::size_t>(p.pick(recs, all_of(recs), rng))];
  for (int c : counts) EXPECT_NEAR(c, 2500, 250);
}

TEST(Policy, TwoChoicesPrefersFewerOutstanding) {
  auto recs = make_records(2);
  recs[0].outstanding = 50;
  recs[1].outstanding = 1;
  sim::Rng rng(3);
  TwoChoicesPolicy p;
  for (int i = 0; i < 20; ++i) EXPECT_EQ(p.pick(recs, all_of(recs), rng), 1);
}

TEST(Policy, TwoChoicesSingleCandidate) {
  auto recs = make_records(3);
  sim::Rng rng(3);
  TwoChoicesPolicy p;
  EXPECT_EQ(p.pick(recs, set_of(recs, {2}), rng), 2);
  EXPECT_EQ(p.pick(recs, set_of(recs, {}), rng), -1);
}

}  // namespace
}  // namespace ntier::lb
