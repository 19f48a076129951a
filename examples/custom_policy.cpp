// Extending the library: implement a *custom* load-balancing policy against
// the public LbPolicy interface and run it through the full testbed. The
// example policy is "slow-start current load": like current_load, but a
// worker returning from Busy is eased back in (its lb_value is temporarily
// padded) instead of immediately receiving a burst — the paper's §V remedy
// plus a guard against the recovery-period stampede (phase 3 of Fig. 6(c)).
#include <iostream>
#include <memory>

#include "experiment/experiment.h"
#include "experiment/report.h"

using namespace ntier;

namespace {

class SlowStartCurrentLoadPolicy final : public lb::LbPolicy {
 public:
  lb::PolicyKind kind() const override { return lb::PolicyKind::kCurrentLoad; }

  void on_assigned(lb::WorkerRecord& rec, const proto::Request&) override {
    rec.lb_value += 1.0;
  }

  void on_completed(lb::WorkerRecord& rec, const proto::Request&) override {
    // Decay towards the true outstanding count: the pad added after a Busy
    // episode wears off as the worker proves itself.
    const double target = static_cast<double>(rec.outstanding);
    rec.lb_value = std::max(target, rec.lb_value - 1.0 - kDecay);
  }

  int pick(const std::vector<lb::WorkerRecord>& records,
           const lb::EligibleSet& eligible, sim::Rng& rng) override {
    // Pad workers that just failed acquisition (consecutive_failures > 0):
    // they are likely mid-millibottleneck even if nominally Available.
    int best = -1;
    double best_v = 0;
    for (int idx : eligible) {
      const auto& r = records[static_cast<std::size_t>(idx)];
      const double v = r.lb_value + kPad * r.consecutive_failures;
      if (best < 0 || v < best_v) {
        best = idx;
        best_v = v;
      }
    }
    (void)rng;
    return best;
  }

 private:
  static constexpr double kDecay = 0.25;
  static constexpr double kPad = 8.0;
};

}  // namespace

int main() {
  // The Experiment harness builds policies from PolicyKind, so for a custom
  // policy we assemble the testbed's front-end balancer directly — this is
  // exactly what ApacheServer does internally.
  sim::Simulation simu(7);
  lb::BalancerConfig bcfg;
  lb::LoadBalancer balancer(simu, 4, std::make_unique<SlowStartCurrentLoadPolicy>(),
                            lb::make_acquirer(lb::MechanismKind::kNonBlocking),
                            bcfg);

  // Drive it open-loop: 2 000 assignments, with worker 0 stalled (responses
  // withheld) between t=1s and t=1.3s.
  std::vector<int> assigned(4, 0);
  int errors = 0;
  std::vector<std::pair<int, proto::RequestRef>> stalled;
  proto::RequestPool requests;  // where a driver makes its requests
  auto rng = simu.rng().fork();
  for (int i = 0; i < 2000; ++i) {
    simu.after(sim::SimTime::from_millis(i * 2.0), [&, i] {
      auto req = requests.make();
      req->id = static_cast<std::uint64_t>(i);
      balancer.assign(req, [&, req](int idx) {
        if (idx < 0) {
          ++errors;
          return;
        }
        ++assigned[static_cast<std::size_t>(idx)];
        const auto now = simu.now();
        const bool worker0_stalled = idx == 0 &&
                                     now >= sim::SimTime::seconds(1) &&
                                     now < sim::SimTime::from_millis(1300);
        if (worker0_stalled) {
          stalled.emplace_back(idx, req);  // response withheld until recovery
        } else {
          simu.after(sim::SimTime::from_millis(rng.uniform(0.5, 1.5)),
                     [&, idx, req] { balancer.on_response(idx, req); });
        }
      });
    });
  }
  simu.after(sim::SimTime::from_millis(1300), [&] {
    for (auto& [idx, req] : stalled) balancer.on_response(idx, req);
    stalled.clear();
  });
  simu.run();

  std::cout << "slow-start current_load, worker0 stalled 1.0s-1.3s\n";
  for (int t = 0; t < 4; ++t)
    std::cout << "  worker" << t << " assigned " << assigned[static_cast<std::size_t>(t)]
              << " requests\n";
  std::cout << "  balancer errors: " << errors << "\n";
  std::cout << "\nworker0 received "
            << 100.0 * assigned[0] / 2000.0
            << "% of traffic despite the stall (fair share would be 25%).\n";
  return 0;
}
