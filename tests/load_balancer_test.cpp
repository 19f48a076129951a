#include "lb/load_balancer.h"

#include <gtest/gtest.h>

#include "sim/simulation.h"

namespace ntier::lb {
namespace {

using sim::SimTime;
using sim::Simulation;

proto::RequestRef make_req(std::uint64_t id = 1) {
  static proto::RequestPool pool;  // the test process is single-threaded
  auto r = pool.make();
  r->id = id;
  r->request_bytes = 400;
  r->response_bytes = 1600;
  return r;
}

std::unique_ptr<LoadBalancer> make_lb(Simulation& s, PolicyKind policy,
                                      MechanismKind mech,
                                      BalancerConfig cfg = {}) {
  return std::make_unique<LoadBalancer>(s, 4, make_policy(policy),
                                        make_acquirer(mech, cfg.blocking), cfg);
}

TEST(LoadBalancer, SpreadsEvenlyWhenHealthy) {
  Simulation s;
  auto lb = make_lb(s, PolicyKind::kTotalRequest, MechanismKind::kNonBlocking);
  std::vector<int> counts(4, 0);
  for (int i = 0; i < 400; ++i) {
    auto req = make_req(static_cast<std::uint64_t>(i));
    lb->assign(req, [&, req](int idx) {
      ASSERT_GE(idx, 0);
      ++counts[static_cast<std::size_t>(idx)];
      lb->on_response(idx, req);  // instant completion
    });
  }
  for (int c : counts) EXPECT_EQ(c, 100);
}

TEST(LoadBalancer, RejectsZeroWorkers) {
  // Nothing to balance over; source_hash would otherwise divide by zero.
  Simulation s;
  EXPECT_THROW(LoadBalancer(s, 0, make_policy(PolicyKind::kSourceHash),
                            make_acquirer(MechanismKind::kNonBlocking)),
               std::invalid_argument);
}

TEST(LoadBalancer, AssignSetsRequestTomcatAndStats) {
  Simulation s;
  auto lb = make_lb(s, PolicyKind::kTotalRequest, MechanismKind::kNonBlocking);
  auto req = make_req();
  int got = -2;
  lb->assign(req, [&](int idx) { got = idx; });
  EXPECT_EQ(got, 0);
  // The balancer does not write into the request; interpreting the index is
  // the caller's job (tomcat_id for Apache, replica for the DB router).
  EXPECT_EQ(req->tomcat_id, -1);
  EXPECT_EQ(lb->record(0).assigned, 1u);
  EXPECT_EQ(lb->record(0).outstanding, 1);
  EXPECT_EQ(lb->record(0).committed, 1);
  EXPECT_EQ(lb->pool(0).in_use(), 1u);
  lb->on_response(0, req);
  EXPECT_EQ(lb->record(0).completed, 1u);
  EXPECT_EQ(lb->record(0).outstanding, 0);
  EXPECT_EQ(lb->record(0).committed, 0);
  EXPECT_EQ(lb->pool(0).in_use(), 0u);
}

TEST(LoadBalancer, NonBlockingFailureMarksBusyAndSkips) {
  Simulation s;
  BalancerConfig cfg;
  cfg.endpoint_pool_size = 1;
  auto lb = make_lb(s, PolicyKind::kTotalRequest, MechanismKind::kNonBlocking, cfg);

  // Exhaust worker 0's pool (its response never arrives).
  auto stuck = make_req(1);
  lb->assign(stuck, [](int idx) { ASSERT_EQ(idx, 0); });
  // Prime workers 1-3 so worker 0 stays the tied-minimum pick.
  for (int t = 1; t <= 3; ++t) {
    auto req = make_req();
    lb->assign(req, [&, req](int idx) { lb->on_response(idx, req); });
  }

  // Next request picks worker 0 again, fails instantly (pool exhausted ->
  // Busy), and lands on worker 1 without any simulated delay.
  auto req = make_req(2);
  int got = -2;
  lb->assign(req, [&](int idx) { got = idx; });
  EXPECT_EQ(got, 1);
  EXPECT_EQ(lb->record(0).state, WorkerState::kBusy);
  EXPECT_EQ(s.now(), SimTime::zero());
  EXPECT_EQ(lb->record(0).acquire_failures, 1u);
}

TEST(LoadBalancer, BusyWorkerRecoversAfterInterval) {
  Simulation s;
  BalancerConfig cfg;
  cfg.endpoint_pool_size = 1;
  cfg.busy_recovery = SimTime::millis(100);
  auto lb = make_lb(s, PolicyKind::kCurrentLoad, MechanismKind::kNonBlocking, cfg);

  // Pin every worker, then fail an assignment against all of them so each
  // is marked Busy.
  auto stuck = make_req(1);
  lb->assign(stuck, [](int idx) { ASSERT_EQ(idx, 0); });
  for (int i = 0; i < 3; ++i) lb->assign(make_req(), [](int) {});
  int err = 0;
  lb->assign(make_req(), [&](int idx) { err = idx; });
  EXPECT_EQ(err, -1);
  for (int t = 0; t < 4; ++t)
    EXPECT_EQ(lb->record(t).state, WorkerState::kBusy) << t;

  // After the stuck request completes and the Busy interval elapses, the
  // worker is eligible again.
  s.after(SimTime::millis(150), [&] {
    lb->on_response(0, stuck);
    auto r3 = make_req(3);
    int got = -2;
    lb->assign(r3, [&](int idx) { got = idx; });
    EXPECT_EQ(got, 0);  // eligible again and lowest current load
    EXPECT_EQ(lb->record(0).state, WorkerState::kAvailable);
  });
  s.run();
}

TEST(LoadBalancer, RepeatedFailuresEscalateToError) {
  Simulation s;
  BalancerConfig cfg;
  cfg.endpoint_pool_size = 1;
  cfg.busy_recovery = SimTime::millis(10);
  cfg.failures_to_error = 3;
  cfg.error_recovery = SimTime::seconds(60);
  auto lb = make_lb(s, PolicyKind::kTotalRequest, MechanismKind::kNonBlocking, cfg);

  lb->assign(make_req(1), [](int) {});  // pin worker 0 (lb_value -> 1)
  // Prime workers 1-3 to lb_value 1 so the frozen worker 0 stays the tied
  // minimum and keeps being picked first — the paper's §V-A pattern.
  for (int t = 1; t <= 3; ++t) {
    auto req = make_req();
    lb->assign(req, [&, req](int idx) { lb->on_response(idx, req); });
  }
  // Each probe picks worker 0 first, fails, and fails over to a healthy
  // worker; three failures across recovery windows escalate to Error.
  for (int i = 1; i <= 3; ++i) {
    s.after(SimTime::millis(20 * i), [&] {
      auto req = make_req();
      lb->assign(req, [&, req](int idx) {
        if (idx >= 0) lb->on_response(idx, req);
      });
    });
  }
  s.run();
  EXPECT_EQ(lb->record(0).state, WorkerState::kError);
  EXPECT_EQ(lb->record(0).consecutive_failures, 3);
}

TEST(LoadBalancer, ErrorWorkerReadmittedAfterRecoveryInterval) {
  Simulation s;
  BalancerConfig cfg;
  cfg.endpoint_pool_size = 1;
  cfg.busy_recovery = SimTime::millis(10);
  cfg.failures_to_error = 3;
  cfg.error_recovery = SimTime::millis(500);
  auto lb = make_lb(s, PolicyKind::kTotalRequest, MechanismKind::kNonBlocking, cfg);

  auto stuck = make_req(1);
  lb->assign(stuck, [](int idx) { ASSERT_EQ(idx, 0); });  // pin worker 0
  for (int t = 1; t <= 3; ++t) {
    auto req = make_req();
    lb->assign(req, [&, req](int idx) { lb->on_response(idx, req); });
  }
  // Three failures across Busy windows escalate worker 0 to Error at 60 ms
  // (Error until 560 ms).
  for (int i = 1; i <= 3; ++i) {
    s.after(SimTime::millis(20 * i), [&] {
      auto req = make_req();
      lb->assign(req, [&, req](int idx) {
        if (idx >= 0) lb->on_response(idx, req);
      });
    });
  }
  // Free worker 0's endpoint; it is still sidelined by the Error state.
  s.after(SimTime::millis(100), [&] { lb->on_response(0, stuck); });
  int during_error = -2;
  s.after(SimTime::millis(200), [&] {
    auto req = make_req();
    lb->assign(req, [&, req](int idx) {
      during_error = idx;
      if (idx >= 0) lb->on_response(idx, req);
    });
  });
  int after_recovery = -2;
  s.after(SimTime::millis(600), [&] {
    auto req = make_req();
    lb->assign(req, [&, req](int idx) {
      after_recovery = idx;
      if (idx >= 0) lb->on_response(idx, req);
    });
  });
  s.run();
  // While Error (and despite a free endpoint + minimal lb_value) worker 0 is
  // skipped; after mod_jk's `retry` elapses it is re-admitted and, with the
  // lowest lb_value, picked first again.
  EXPECT_GT(during_error, 0);
  EXPECT_EQ(after_recovery, 0);
  EXPECT_EQ(lb->record(0).state, WorkerState::kAvailable);
  EXPECT_EQ(lb->record(0).consecutive_failures, 0);
}

TEST(LoadBalancer, StickyForceFailsInsteadOfFallingBack) {
  Simulation s;
  BalancerConfig cfg;
  cfg.endpoint_pool_size = 1;
  cfg.sticky_sessions = true;
  cfg.sticky_force = true;
  auto lb = make_lb(s, PolicyKind::kTotalRequest, MechanismKind::kNonBlocking, cfg);

  auto pinned = make_req(1);
  pinned->session_route = 2;
  lb->assign(pinned, [](int idx) { ASSERT_EQ(idx, 2); });  // holds the slot

  // Same route, pool exhausted: with sticky_session_force there is no
  // fallback to the policy — the request fails with a balancer 503.
  auto second = make_req(2);
  second->session_route = 2;
  int got = -2;
  lb->assign(second, [&](int idx) { got = idx; });
  EXPECT_EQ(got, -1);
  EXPECT_EQ(lb->balancer_errors(), 1u);
  // The failed acquisition marked the owner Busy; a third routed request is
  // refused up front, without even attempting the worker.
  EXPECT_EQ(lb->record(2).state, WorkerState::kBusy);
  auto third = make_req(3);
  third->session_route = 2;
  got = -2;
  lb->assign(third, [&](int idx) { got = idx; });
  EXPECT_EQ(got, -1);
  EXPECT_EQ(lb->balancer_errors(), 2u);
  EXPECT_EQ(lb->record(2).acquire_failures, 1u);
}

TEST(LoadBalancer, StickyWithoutForceFallsBackToPolicy) {
  Simulation s;
  BalancerConfig cfg;
  cfg.endpoint_pool_size = 1;
  cfg.sticky_sessions = true;
  auto lb = make_lb(s, PolicyKind::kTotalRequest, MechanismKind::kNonBlocking, cfg);

  auto pinned = make_req(1);
  pinned->session_route = 2;
  lb->assign(pinned, [](int idx) { ASSERT_EQ(idx, 2); });
  auto second = make_req(2);
  second->session_route = 2;
  int got = -2;
  lb->assign(second, [&](int idx) { got = idx; });
  EXPECT_GE(got, 0);
  EXPECT_NE(got, 2);
  EXPECT_EQ(lb->balancer_errors(), 0u);
}

TEST(LoadBalancer, AllWorkersExhaustedIsBalancerError) {
  Simulation s;
  BalancerConfig cfg;
  cfg.endpoint_pool_size = 1;
  auto lb = make_lb(s, PolicyKind::kTotalRequest, MechanismKind::kNonBlocking, cfg);
  for (int i = 0; i < 4; ++i) lb->assign(make_req(), [](int) {});
  int got = 0;
  lb->assign(make_req(), [&](int idx) { got = idx; });
  EXPECT_EQ(got, -1);
  EXPECT_EQ(lb->balancer_errors(), 1u);
}

TEST(LoadBalancer, BlockingMechanismConsumesTimeOnStalledWorker) {
  Simulation s;
  BalancerConfig cfg;
  cfg.endpoint_pool_size = 1;
  auto lb = make_lb(s, PolicyKind::kTotalRequest, MechanismKind::kBlocking, cfg);

  lb->assign(make_req(1), [](int) {});  // pin worker 0 (lb_value now 1)

  // Worker 1..3 have lb_value 0; they get picked first. Pin them too.
  for (int i = 2; i <= 4; ++i) lb->assign(make_req(), [](int) {});

  // All pools exhausted: the next assignment polls each worker for 300 ms
  // before failing over, 4 workers => completes (with error) at 1200 ms.
  int got = 0;
  lb->assign(make_req(9), [&](int idx) { got = idx; });
  s.run();
  EXPECT_EQ(got, -1);
  EXPECT_EQ(s.now(), SimTime::millis(1200));
}

TEST(LoadBalancer, CommittedCountsBlockedWaiters) {
  Simulation s;
  BalancerConfig cfg;
  cfg.endpoint_pool_size = 1;
  auto lb = make_lb(s, PolicyKind::kTotalRequest, MechanismKind::kBlocking, cfg);
  std::vector<metrics::GaugeSeries> committed(4, metrics::GaugeSeries(SimTime::millis(50)));
  lb->set_series({}, committed, {});

  lb->assign(make_req(1), [](int) {});  // occupies worker0's only endpoint
  // Give workers 1-3 one request each so their lb_values match worker 0's.
  for (int t = 1; t <= 3; ++t) {
    auto req = make_req();
    lb->assign(req, [&, req](int idx) {
      ASSERT_EQ(idx, t);
      lb->on_response(idx, req);
    });
  }
  // Every additional concurrent request now picks worker 0 (tied minimum,
  // first index) and blocks in get_endpoint, so committed >> outstanding.
  for (int i = 0; i < 10; ++i) lb->assign(make_req(), [](int) {});
  EXPECT_EQ(lb->record(0).committed, 11);
  EXPECT_EQ(lb->record(0).outstanding, 1);
  s.run_until(SimTime::millis(40));
  EXPECT_GE(committed[0].global_max(), 11.0);
}

TEST(LoadBalancer, TracingRecordsLbValuesAndAssignments) {
  Simulation s;
  auto lb = make_lb(s, PolicyKind::kTotalRequest, MechanismKind::kNonBlocking);
  const SimTime window = SimTime::millis(50);
  std::vector<metrics::GaugeSeries> lb_value(4, metrics::GaugeSeries(window));
  std::vector<metrics::GaugeSeries> committed(4, metrics::GaugeSeries(window));
  std::vector<metrics::TimeSeries> assignments(4, metrics::TimeSeries(window));
  lb->set_series(lb_value, committed, assignments);
  for (int i = 0; i < 8; ++i) {
    auto req = make_req();
    lb->assign(req, [&, req](int idx) { lb->on_response(idx, req); });
  }
  for (int t = 0; t < 4; ++t) {
    lb_value[t].finish(s.now());
    EXPECT_DOUBLE_EQ(lb_value[t].global_max(), 2.0);
    EXPECT_EQ(assignments[t].total_count(), 2);
  }
}

}  // namespace
}  // namespace ntier::lb
