// Tests for the workload-realism extensions: sticky-session route adoption
// at the client, and bursty arrivals.
#include <gtest/gtest.h>

#include "sim/simulation.h"
#include "workload/client.h"
#include "workload/rubbos.h"

namespace ntier::workload {
namespace {

using sim::SimTime;
using sim::Simulation;

class InstantFrontEnd : public proto::FrontEnd {
 public:
  explicit InstantFrontEnd(Simulation& s) : sim_(s) {}
  bool try_submit(const proto::RequestRef& req, RespondFn respond) override {
    ++accepted_;
    sim_.after(SimTime::millis(1), [req, respond = std::move(respond)] {
      req->tomcat_id = static_cast<std::int16_t>(req->id % 4);  // fake backend
      respond(req, true);
    });
    return true;
  }
  Simulation& sim_;
  int accepted_ = 0;
};

TEST(StickyClients, AdoptRouteAfterFirstResponse) {
  Simulation s;
  RubbosWorkload w;
  metrics::RequestLog log(SimTime::millis(50), /*keep_records=*/true);
  InstantFrontEnd fe(s);
  ClientParams p;
  p.num_clients = 1;
  p.think_mean = SimTime::millis(50);
  p.ramp = SimTime::zero();
  p.sticky_sessions = true;
  ClientPopulation clients(s, p, w, {&fe}, log);
  clients.start();
  s.run_until(SimTime::seconds(1));
  ASSERT_GE(log.records().size(), 3u);
  // First request has no route; every later one carries the adopted one.
  const auto first_tomcat = log.records()[0].tomcat;
  ASSERT_GE(first_tomcat, 0);
  // (routes are visible via the requests the front-end received)
  // Re-issue check: the fake front-end overwrites tomcat_id per id, so the
  // adopted route changes over time; what matters is that session_route was
  // populated — verified through the balancer-level tests. Here we confirm
  // the client plumbing doesn't crash and keeps completing.
  EXPECT_GT(clients.completed_ok(), 3u);
}

TEST(BurstyClients, BurstPhasesRaiseThroughput) {
  Simulation s;
  RubbosWorkload w;
  metrics::RequestLog log;
  InstantFrontEnd fe(s);
  ClientParams p;
  p.num_clients = 200;
  p.think_mean = SimTime::millis(200);
  p.ramp = SimTime::millis(200);
  p.bursty = true;
  p.burst_multiplier = 8.0;
  ClientPopulation clients(s, p, w, {&fe}, log);
  clients.start();
  s.run_until(SimTime::seconds(20));

  // Compare per-second completion counts: burst seconds should far exceed
  // quiet seconds.
  const auto& rt = log.response_time_series();
  std::vector<double> per_sec(20, 0.0);
  for (std::size_t i = 0; i < rt.num_windows(); ++i)
    per_sec[std::min<std::size_t>(19, i / 20)] += static_cast<double>(rt.count(i));
  double mx = 0, mn = 1e18;
  for (std::size_t k = 1; k < per_sec.size(); ++k) {  // skip ramp second
    mx = std::max(mx, per_sec[k]);
    mn = std::min(mn, per_sec[k]);
  }
  EXPECT_GT(mx, 2.5 * mn);
}

TEST(BurstyClients, DisabledMeansSteadyThroughput) {
  Simulation s;
  RubbosWorkload w;
  metrics::RequestLog log;
  InstantFrontEnd fe(s);
  ClientParams p;
  p.num_clients = 200;
  p.think_mean = SimTime::millis(200);
  p.ramp = SimTime::millis(200);
  ClientPopulation clients(s, p, w, {&fe}, log);
  clients.start();
  s.run_until(SimTime::seconds(20));
  const auto& rt = log.response_time_series();
  std::vector<double> per_sec(20, 0.0);
  for (std::size_t i = 0; i < rt.num_windows(); ++i)
    per_sec[std::min<std::size_t>(19, i / 20)] += static_cast<double>(rt.count(i));
  double mx = 0, mn = 1e18;
  for (std::size_t k = 1; k < per_sec.size(); ++k) {
    mx = std::max(mx, per_sec[k]);
    mn = std::min(mn, per_sec[k]);
  }
  EXPECT_LT(mx, 1.6 * mn);
}

}  // namespace
}  // namespace ntier::workload
