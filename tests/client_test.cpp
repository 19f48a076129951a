#include "workload/client.h"

#include <gtest/gtest.h>

#include <vector>

#include "sim/simulation.h"

namespace ntier::workload {
namespace {

using sim::SimTime;
using sim::Simulation;

/// Front-end test double: scripted accept/deny with instant responses.
class FakeFrontEnd : public proto::FrontEnd {
 public:
  explicit FakeFrontEnd(Simulation& s) : sim_(s) {}

  bool try_submit(const proto::RequestRef& req, RespondFn respond) override {
    ++attempts_;
    if (deny_remaining_ > 0) {
      --deny_remaining_;
      return false;
    }
    ++accepted_;
    sim_.after(service_time_, [req, respond = std::move(respond)] {
      respond(req, true);
    });
    return true;
  }

  Simulation& sim_;
  SimTime service_time_ = SimTime::millis(2);
  int deny_remaining_ = 0;
  int attempts_ = 0;
  int accepted_ = 0;
};

ClientParams quick_params(int n) {
  ClientParams p;
  p.num_clients = n;
  p.think_mean = SimTime::millis(100);
  p.ramp = SimTime::millis(100);
  return p;
}

TEST(ClientPopulation, ClosedLoopIssuesAndRecords) {
  Simulation s;
  RubbosWorkload w;
  metrics::RequestLog log;
  FakeFrontEnd fe(s);
  ClientPopulation clients(s, quick_params(10), w, {&fe}, log);
  clients.start();
  s.run_until(SimTime::seconds(2));
  EXPECT_GT(clients.issued(), 100u);
  EXPECT_EQ(clients.completed_ok() + clients.in_flight(), clients.issued());
  EXPECT_EQ(log.completed(), static_cast<std::int64_t>(clients.completed_ok()));
  EXPECT_EQ(log.dropped(), 0);
  // RT = 2 links + 2ms service.
  EXPECT_NEAR(log.mean_response_ms(), 2.2, 0.05);
}

TEST(ClientPopulation, ThroughputMatchesLittlesLaw) {
  Simulation s;
  RubbosWorkload w;
  metrics::RequestLog log;
  FakeFrontEnd fe(s);
  fe.service_time_ = SimTime::millis(1);
  ClientPopulation clients(s, quick_params(100), w, {&fe}, log);
  clients.start();
  s.run_until(SimTime::seconds(10));
  // 100 clients / (100ms think + ~1.2ms rt) ≈ 988 req/s.
  const double rate = static_cast<double>(clients.completed_ok()) / 10.0;
  EXPECT_NEAR(rate, 988.0, 60.0);
}

TEST(ClientPopulation, RetransmitsAfterDrop) {
  Simulation s;
  RubbosWorkload w;
  metrics::RequestLog log;
  FakeFrontEnd fe(s);
  fe.deny_remaining_ = 1;  // first SYN dropped
  ClientParams p = quick_params(1);
  p.ramp = SimTime::zero();
  ClientPopulation clients(s, p, w, {&fe}, log);
  clients.start();
  s.run_until(SimTime::seconds(5));
  EXPECT_EQ(clients.connection_drops(), 1u);
  ASSERT_GE(log.completed(), 1);
  // First completion: dropped SYN + 1s RTO + accepted attempt ≈ 1s + 2.2ms.
  EXPECT_GT(log.vlrt_count(), 0);
  EXPECT_NEAR(log.histogram().max_recorded(), 1002.2, 5.0);
  EXPECT_EQ(log.total_retransmissions(),
            static_cast<std::int64_t>(log.completed() > 1 ? 1 : 1));
}

TEST(ClientPopulation, GivesUpAfterScheduleExhausted) {
  Simulation s;
  RubbosWorkload w;
  metrics::RequestLog log;
  FakeFrontEnd fe(s);
  fe.deny_remaining_ = 1'000'000;  // never accepts
  ClientParams p = quick_params(1);
  p.ramp = SimTime::zero();
  p.retransmit = net::RetransmitSchedule::constant(SimTime::seconds(1), 3);
  ClientPopulation clients(s, p, w, {&fe}, log);
  clients.start();
  s.run_until(SimTime::from_seconds(3.5));
  EXPECT_EQ(clients.dropped(), 1u);
  EXPECT_EQ(log.dropped(), 1);
  // Initial attempt + 3 retries; the closed loop may already have issued the
  // *next* interaction by now, so allow additional attempts beyond 4.
  EXPECT_GE(fe.attempts_, 4);
  // The client continues its session after the failure (closed loop).
  s.run_until(SimTime::seconds(20));
  EXPECT_GT(clients.issued(), 1u);
}

TEST(ClientPopulation, BalancerErrorCountsAsFailure) {
  class ErrorFrontEnd : public proto::FrontEnd {
   public:
    explicit ErrorFrontEnd(Simulation& s) : sim_(s) {}
    bool try_submit(const proto::RequestRef& req, RespondFn respond) override {
      sim_.after(SimTime::millis(1),
                 [req, respond = std::move(respond)] { respond(req, false); });
      return true;
    }
    Simulation& sim_;
  };
  Simulation s;
  RubbosWorkload w;
  metrics::RequestLog log;
  ErrorFrontEnd fe(s);
  ClientParams p = quick_params(1);
  p.ramp = SimTime::zero();
  ClientPopulation clients(s, p, w, {&fe}, log);
  clients.start();
  s.run_until(SimTime::millis(50));
  EXPECT_EQ(clients.failed(), 1u);
  EXPECT_EQ(log.balancer_errors(), 1);
}

TEST(ClientPopulation, SpreadsClientsAcrossFrontEnds) {
  Simulation s;
  RubbosWorkload w;
  metrics::RequestLog log;
  FakeFrontEnd fe1(s), fe2(s);
  ClientPopulation clients(s, quick_params(100), w, {&fe1, &fe2}, log);
  clients.start();
  s.run_until(SimTime::seconds(2));
  EXPECT_NEAR(static_cast<double>(fe1.accepted_) / fe2.accepted_, 1.0, 0.1);
}

TEST(ClientPopulation, WarmupSuppressesEarlyRecords) {
  Simulation s;
  RubbosWorkload w;
  metrics::RequestLog log;
  FakeFrontEnd fe(s);
  ClientParams p = quick_params(10);
  p.warmup = SimTime::seconds(1);
  ClientPopulation clients(s, p, w, {&fe}, log);
  clients.start();
  s.run_until(SimTime::seconds(2));
  EXPECT_LT(log.completed(), static_cast<std::int64_t>(clients.completed_ok()));
  // No recorded completion started before the warmup boundary.
  const auto& rt = log.response_time_series();
  for (std::size_t i = 0; i < 19; ++i) EXPECT_EQ(rt.count(i), 0) << i;
}

TEST(ClientPopulation, ClientIdsPastSixteenBitsKeepTheirOwnState) {
  // More clients than a 16-bit id can name: client c and client c + 65536
  // must stay distinct in the issue hook and in their sticky routes.
  constexpr int kClients = 65'540;
  /// Answers each client's first request from a "Tomcat" that identifies
  /// the client's 64 Ki block (so c and c + 65536 get different routes) and
  /// records the route the second request carries, leaving it unanswered so
  /// every client issues exactly two requests.
  class RouteFrontEnd : public proto::FrontEnd {
   public:
    explicit RouteFrontEnd(Simulation& s)
        : sim_(s), answered_(kClients, false), second_route_(kClients, -2) {}
    bool try_submit(const proto::RequestRef& req, RespondFn respond) override {
      const std::size_t c = req->client;
      if (answered_[c]) {
        second_route_[c] = req->session_route;
        return true;
      }
      answered_[c] = true;
      req->tomcat_id = static_cast<std::int16_t>(1 + c / 65536);
      sim_.after(SimTime::millis(1), [req, respond = std::move(respond)] {
        respond(req, true);
      });
      return true;
    }
    Simulation& sim_;
    std::vector<bool> answered_;
    std::vector<int> second_route_;
  };
  Simulation s;
  RubbosWorkload w;
  metrics::RequestLog log;
  RouteFrontEnd fe(s);
  ClientParams p = quick_params(kClients);
  p.think_mean = SimTime::millis(10);
  p.sticky_sessions = true;
  ClientPopulation clients(s, p, w, {&fe}, log);
  std::vector<int> issued_by(kClients, 0);
  clients.set_issue_hook([&issued_by](SimTime, const proto::Request& req) {
    ASSERT_LT(req.client, static_cast<std::uint32_t>(kClients));
    ++issued_by[req.client];
  });
  clients.start();
  s.run_until(SimTime::seconds(2));
  ASSERT_EQ(clients.issued(), 2u * kClients);
  for (int c = 0; c < kClients; ++c) {
    ASSERT_EQ(issued_by[static_cast<std::size_t>(c)], 2) << "client " << c;
    ASSERT_EQ(fe.second_route_[static_cast<std::size_t>(c)], 1 + c / 65536)
        << "client " << c;
  }
}

TEST(ClientPopulation, RejectsEmptyConfig) {
  Simulation s;
  RubbosWorkload w;
  metrics::RequestLog log;
  FakeFrontEnd fe(s);
  EXPECT_THROW(ClientPopulation(s, quick_params(0), w, {&fe}, log),
               std::invalid_argument);
  EXPECT_THROW(ClientPopulation(s, quick_params(1), w, {}, log),
               std::invalid_argument);
}

}  // namespace
}  // namespace ntier::workload
