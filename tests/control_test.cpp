#include <gtest/gtest.h>

#include "control/admission.h"
#include "control/codel.h"
#include "control/overload.h"
#include "proto/request.h"
#include "sim/simulation.h"

namespace ntier::control {
namespace {

using sim::SimTime;
using sim::Simulation;

// -- CoDelController ----------------------------------------------------------

TEST(CoDel, BelowTargetNeverDrops) {
  CoDelController codel;
  for (int i = 0; i < 100; ++i) {
    const SimTime now = SimTime::millis(i);
    EXPECT_FALSE(codel.should_drop(now - SimTime::millis(5), now));
  }
  EXPECT_FALSE(codel.dropping());
  EXPECT_EQ(codel.drops(), 0u);
}

TEST(CoDel, SustainedSojournAboveTargetEntersDroppingAfterOneInterval) {
  CoDelController codel;  // target 20 ms, interval 100 ms
  const SimTime sojourn = SimTime::millis(50);
  // First above-target dequeue arms the controller but gives the queue one
  // full interval to recover before anything is shed.
  EXPECT_FALSE(codel.should_drop(SimTime::zero() - sojourn, SimTime::zero()));
  EXPECT_FALSE(codel.should_drop(SimTime::millis(50) - sojourn,
                                 SimTime::millis(50)));
  EXPECT_FALSE(codel.dropping());
  // One interval after the first crossing: dropping begins.
  EXPECT_TRUE(codel.should_drop(SimTime::millis(100) - sojourn,
                                SimTime::millis(100)));
  EXPECT_TRUE(codel.dropping());
  EXPECT_EQ(codel.drops(), 1u);
}

TEST(CoDel, ControlLawSpacingShrinksWhileDropping) {
  CoDelController codel;
  const SimTime sojourn = SimTime::millis(50);
  std::vector<SimTime> drop_times;
  for (std::int64_t ms = 0; ms <= 600 && drop_times.size() < 3; ++ms) {
    const SimTime now = SimTime::millis(ms);
    if (codel.should_drop(now - sojourn, now)) drop_times.push_back(now);
  }
  ASSERT_EQ(drop_times.size(), 3u);
  // interval / sqrt(count): the gap between consecutive drops shrinks.
  const SimTime gap1 = drop_times[1] - drop_times[0];
  const SimTime gap2 = drop_times[2] - drop_times[1];
  EXPECT_LT(gap2, gap1);
  EXPECT_EQ(codel.drops(), 3u);
}

TEST(CoDel, RecoveredQueueLeavesDroppingStateAndRearms) {
  CoDelController codel;
  const SimTime slow = SimTime::millis(50);
  for (std::int64_t ms = 0; ms <= 100; ms += 50)
    codel.should_drop(SimTime::millis(ms) - slow, SimTime::millis(ms));
  ASSERT_TRUE(codel.dropping());
  // One fast dequeue (sojourn below target) resets everything.
  EXPECT_FALSE(codel.should_drop(SimTime::millis(149), SimTime::millis(150)));
  EXPECT_FALSE(codel.dropping());
  // Crossing target again must survive a full interval before the next drop.
  EXPECT_FALSE(codel.should_drop(SimTime::millis(200) - slow,
                                 SimTime::millis(200)));
  EXPECT_FALSE(codel.should_drop(SimTime::millis(250) - slow,
                                 SimTime::millis(250)));
  EXPECT_TRUE(codel.should_drop(SimTime::millis(300) - slow,
                                SimTime::millis(300)));
}

// -- AdmissionLimiter ---------------------------------------------------------

TEST(AdmissionLimiter, MultiplicativeDecreaseOnCongestedWindow) {
  Simulation s;
  // threshold 25 ms, interval 100 ms, factor 0.7
  AdmissionLimiter lim(s, /*initial_limit=*/100.0, /*brownout=*/false);
  lim.start();
  lim.observe_delay(SimTime::millis(50));
  s.run_until(SimTime::millis(150));  // exactly one tick fires at 100 ms
  EXPECT_DOUBLE_EQ(lim.limit(), 70.0);
  EXPECT_EQ(lim.decreases(), 1u);
}

TEST(AdmissionLimiter, AdditiveIncreaseWhileQuietCapsAtInitial) {
  Simulation s;
  AdmissionLimiter lim(s, 100.0, false);
  lim.start();
  lim.observe_delay(SimTime::millis(50));
  s.run_until(SimTime::millis(150));
  ASSERT_DOUBLE_EQ(lim.limit(), 70.0);
  // Quiet windows: +increase per tick, never above the nominal concurrency.
  s.run_until(SimTime::millis(350));  // two more quiet ticks
  EXPECT_DOUBLE_EQ(lim.limit(), 78.0);
  s.run_until(SimTime::seconds(2));
  EXPECT_DOUBLE_EQ(lim.limit(), 100.0);
  EXPECT_GT(lim.increases(), 0u);
}

TEST(AdmissionLimiter, SustainedCongestionClampsAtMinLimit) {
  Simulation s;
  AdmissionLimiter lim(s, 1000.0, false);
  lim.start();
  // Re-inject a bad delay just after every tick so every window is congested.
  for (int i = 0; i < 30; ++i) {
    s.after(kAdmissionInterval * i + SimTime::millis(1),
            [&lim] { lim.observe_delay(SimTime::millis(200)); });
  }
  s.run_until(SimTime::seconds(3));
  EXPECT_DOUBLE_EQ(lim.limit(), kMinLimit);
}

TEST(AdmissionLimiter, InFlightAccountingAdmitAndRelease) {
  Simulation s;
  AdmissionLimiter lim(s, 4.0, false);
  EXPECT_TRUE(lim.try_admit(1));
  EXPECT_TRUE(lim.try_admit(1));
  EXPECT_TRUE(lim.try_admit(1));
  EXPECT_TRUE(lim.try_admit(1));
  EXPECT_EQ(lim.in_flight(), 4u);
  EXPECT_FALSE(lim.try_admit(1));  // at the limit
  EXPECT_EQ(lim.last_rejection(), proto::ShedReason::kAdmission);
  lim.release();
  EXPECT_TRUE(lim.try_admit(1));
  EXPECT_EQ(lim.admitted(), 5u);
  EXPECT_EQ(lim.rejected(), 1u);
  for (int i = 0; i < 10; ++i) lim.release();  // over-release stays safe
  EXPECT_EQ(lim.in_flight(), 0u);
}

TEST(AdmissionLimiter, BrownoutShedsLowPriorityFirst) {
  Simulation s;
  AdmissionLimiter lim(s, 10.0, /*brownout=*/true);
  // Fill to 8 in flight: below the full limit (10) but above the priority-2
  // brownout wall (10 * 0.75 = 7.5).
  for (int i = 0; i < 8; ++i) ASSERT_TRUE(lim.try_admit(0));
  EXPECT_FALSE(lim.try_admit(2));
  EXPECT_EQ(lim.last_rejection(), proto::ShedReason::kBrownout);
  EXPECT_TRUE(lim.try_admit(0));  // high priority still goes through
  EXPECT_TRUE(lim.try_admit(1));  // 9 < 10 * 0.92
  EXPECT_FALSE(lim.try_admit(0));  // now genuinely full
  EXPECT_EQ(lim.last_rejection(), proto::ShedReason::kAdmission);
}

// -- mode parsing / derivation ------------------------------------------------

TEST(OverloadMode, ParsesEveryName) {
  OverloadMode m;
  EXPECT_TRUE(parse_overload_mode("none", &m));
  EXPECT_EQ(m, OverloadMode::kNone);
  EXPECT_TRUE(parse_overload_mode("deadline", &m));
  EXPECT_EQ(m, OverloadMode::kDeadline);
  EXPECT_TRUE(parse_overload_mode("admission", &m));
  EXPECT_EQ(m, OverloadMode::kAdmission);
  EXPECT_TRUE(parse_overload_mode("codel", &m));
  EXPECT_EQ(m, OverloadMode::kCodel);
  EXPECT_TRUE(parse_overload_mode("full", &m));
  EXPECT_EQ(m, OverloadMode::kFull);
  EXPECT_FALSE(parse_overload_mode("everything", &m));
  EXPECT_FALSE(parse_overload_mode("", &m));
}

TEST(OverloadMode, RoundTripsThroughToString) {
  for (auto mode : {OverloadMode::kNone, OverloadMode::kDeadline,
                    OverloadMode::kAdmission, OverloadMode::kCodel,
                    OverloadMode::kFull}) {
    OverloadMode parsed;
    ASSERT_TRUE(parse_overload_mode(to_string(mode), &parsed));
    EXPECT_EQ(parsed, mode);
  }
}

TEST(MakeOverload, DerivesEnforcementSwitches) {
  const auto none = make_overload(OverloadMode::kNone);
  EXPECT_FALSE(none.any());
  EXPECT_FALSE(none.stamp_deadlines);

  const auto dl = make_overload(OverloadMode::kDeadline, SimTime::millis(500));
  EXPECT_TRUE(dl.deadlines);
  EXPECT_FALSE(dl.admission);
  EXPECT_FALSE(dl.codel);
  EXPECT_TRUE(dl.stamp_deadlines);
  EXPECT_EQ(dl.deadline_budget, SimTime::millis(500));

  const auto adm = make_overload(OverloadMode::kAdmission);
  EXPECT_TRUE(adm.admission);
  EXPECT_TRUE(adm.brownout);
  EXPECT_FALSE(adm.deadlines);

  const auto codel = make_overload(OverloadMode::kCodel);
  EXPECT_TRUE(codel.codel);
  EXPECT_FALSE(codel.admission);

  const auto full = make_overload(OverloadMode::kFull);
  EXPECT_TRUE(full.deadlines && full.admission && full.codel && full.brownout);
  EXPECT_TRUE(full.any());
  EXPECT_TRUE(full.stamp_deadlines);
}

TEST(OverloadStats, TotalsAndAccumulate) {
  OverloadStats a{.admission_sheds = 1,
                  .brownout_sheds = 2,
                  .deadline_sheds = 3,
                  .sojourn_sheds = 4,
                  .wasted_work_avoided_ms = 2.5};
  OverloadStats b = a;
  b += a;
  EXPECT_EQ(b.admission_sheds, 2u);
  EXPECT_EQ(b.brownout_sheds, 4u);
  EXPECT_EQ(b.deadline_sheds, 6u);
  EXPECT_EQ(b.sojourn_sheds, 8u);
  EXPECT_EQ(b.recovery_sheds, 0u);
  EXPECT_DOUBLE_EQ(b.wasted_work_avoided_ms, 5.0);
}

TEST(OverloadStats, ShedMarksTheRequestAndCountsItsReason) {
  OverloadStats st;
  proto::Request req;
  req.tomcat_demand = sim::SimTime::millis(3);
  req.mysql_demand = sim::SimTime::millis(2);
  req.db_queries = 2;
  EXPECT_DOUBLE_EQ(backend_demand_ms(req), 7.0);

  st.shed(req, proto::ShedReason::kBrownout, backend_demand_ms(req));
  EXPECT_EQ(req.shed, proto::ShedReason::kBrownout);
  st.shed(req, proto::ShedReason::kRecovery, 1.5);
  EXPECT_EQ(req.shed, proto::ShedReason::kRecovery);
  for (const auto r :
       {proto::ShedReason::kAdmission, proto::ShedReason::kDeadlineExpired,
        proto::ShedReason::kSojourn})
    st.shed(req, r, 0.5);
  EXPECT_EQ(st.admission_sheds, 1u);
  EXPECT_EQ(st.brownout_sheds, 1u);
  EXPECT_EQ(st.deadline_sheds, 1u);
  EXPECT_EQ(st.sojourn_sheds, 1u);
  EXPECT_EQ(st.recovery_sheds, 1u);
  EXPECT_DOUBLE_EQ(st.wasted_work_avoided_ms, 10.0);
}

}  // namespace
}  // namespace ntier::control
