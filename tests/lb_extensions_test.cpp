// Tests for the mod_jk features beyond the paper's pseudo-code: sticky
// sessions and the queueing pool acquirer.
#include <gtest/gtest.h>

#include "lb/load_balancer.h"
#include "sim/simulation.h"

namespace ntier::lb {
namespace {

using sim::SimTime;
using sim::Simulation;

proto::RequestRef make_req(std::uint64_t id = 1) {
  static proto::RequestPool pool;  // the test process is single-threaded
  auto r = pool.make();
  r->id = id;
  r->request_bytes = 100;
  r->response_bytes = 900;
  return r;
}

TEST(Sticky, RoutedRequestGoesToItsOwner) {
  Simulation s;
  BalancerConfig cfg;
  cfg.sticky_sessions = true;
  LoadBalancer lb(s, 4, make_policy(PolicyKind::kTotalRequest),
                  make_acquirer(MechanismKind::kNonBlocking), cfg);
  // Worker 3 is by no means the policy's choice (highest lb_value).
  for (int t = 0; t < 4; ++t) {
    for (int k = 0; k <= t; ++k) {
      auto req = make_req();
      lb.assign(req, [&, req](int idx) { lb.on_response(idx, req); });
    }
  }
  auto routed = make_req();
  routed->session_route = 3;
  int got = -2;
  lb.assign(routed, [&](int idx) { got = idx; });
  EXPECT_EQ(got, 3);
  EXPECT_EQ(lb.sticky_hits(), 1u);
}

TEST(Sticky, FallsBackToPolicyWhenOwnerUnavailable) {
  Simulation s;
  BalancerConfig cfg;
  cfg.sticky_sessions = true;
  cfg.endpoint_pool_size = 1;
  LoadBalancer lb(s, 2, make_policy(PolicyKind::kCurrentLoad),
                  make_acquirer(MechanismKind::kNonBlocking), cfg);
  lb.assign(make_req(), [](int idx) { ASSERT_EQ(idx, 0); });  // pin worker 0
  auto probe = make_req();
  lb.assign(probe, [&, probe](int idx) {
    ASSERT_EQ(idx, 1);
    lb.on_response(idx, probe);  // keep worker 1's endpoint free
  });

  auto routed = make_req();
  routed->session_route = 0;
  int got = -2;
  lb.assign(routed, [&](int idx) { got = idx; });
  EXPECT_EQ(got, 1);  // owner exhausted -> policy fallback
}

TEST(Sticky, ForceFailsInsteadOfFallingBack) {
  Simulation s;
  BalancerConfig cfg;
  cfg.sticky_sessions = true;
  cfg.sticky_force = true;
  cfg.endpoint_pool_size = 1;
  LoadBalancer lb(s, 2, make_policy(PolicyKind::kCurrentLoad),
                  make_acquirer(MechanismKind::kNonBlocking), cfg);
  lb.assign(make_req(), [](int idx) { ASSERT_EQ(idx, 0); });
  lb.assign(make_req(), [](int idx) { ASSERT_EQ(idx, 1); });  // 0 -> Busy

  auto routed = make_req();
  routed->session_route = 0;
  int got = -2;
  lb.assign(routed, [&](int idx) { got = idx; });
  EXPECT_EQ(got, -1);
  EXPECT_EQ(lb.balancer_errors(), 1u);
}

TEST(Sticky, DisabledFlagIgnoresRoutes) {
  Simulation s;
  LoadBalancer lb(s, 4, make_policy(PolicyKind::kTotalRequest),
                  make_acquirer(MechanismKind::kNonBlocking), {});
  auto routed = make_req();
  routed->session_route = 3;
  int got = -2;
  lb.assign(routed, [&](int idx) { got = idx; });
  EXPECT_EQ(got, 0);  // pure policy decision
  EXPECT_EQ(lb.sticky_hits(), 0u);
}

TEST(QueueingPool, WaitersWakeInFifoOrder) {
  Simulation s;
  EndpointPool pool(1);
  std::vector<int> order;
  pool.acquire_or_wait([&](bool ok) { if (ok) order.push_back(0); });
  pool.acquire_or_wait([&](bool ok) { if (ok) order.push_back(1); });
  pool.acquire_or_wait([&](bool ok) { if (ok) order.push_back(2); });
  EXPECT_EQ(order, (std::vector<int>{0}));
  EXPECT_EQ(pool.waiting(), 2u);
  pool.release();  // slot handed to waiter 1
  EXPECT_EQ(order, (std::vector<int>{0, 1}));
  EXPECT_EQ(pool.in_use(), 1u);
  pool.release();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2}));
  pool.release();
  EXPECT_EQ(pool.in_use(), 0u);
}

TEST(QueueingPool, AcquirerNeverFails) {
  Simulation s;
  EndpointPool pool(1);
  WorkerRecord rec;
  QueueingAcquirer acq;
  int grants = 0;
  acq.acquire(s, pool, rec, [&](bool ok) {
    EXPECT_TRUE(ok);
    ++grants;
  });
  acq.acquire(s, pool, rec, [&](bool ok) {
    EXPECT_TRUE(ok);
    ++grants;
  });
  EXPECT_EQ(grants, 1);
  pool.release();
  EXPECT_EQ(grants, 2);
}

}  // namespace
}  // namespace ntier::lb
