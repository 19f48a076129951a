// Millibottleneck diagnosis demo: run the unstable configuration, then
// apply the paper's queue-spike methodology (§III-B) offline and check it
// against the ground-truth pdflush episodes the simulator knows about.
#include <iomanip>
#include <iostream>

#include "experiment/experiment.h"
#include "experiment/report.h"
#include "millib/detector.h"

using namespace ntier;

namespace {

metrics::GaugeSeries committed_gauge(experiment::Experiment& e, int tomcat) {
  metrics::GaugeSeries gauge(e.config().metric_window);
  const auto series = e.tomcat_committed_series(tomcat);
  for (std::size_t i = 0; i < series.size(); ++i)
    gauge.set(e.config().metric_window * static_cast<std::int64_t>(i),
              series[i]);
  gauge.finish(e.config().duration);
  return gauge;
}

}  // namespace

int main() {
  experiment::ExperimentConfig cfg = experiment::ExperimentConfig::scaled(0.1);
  cfg.duration = sim::SimTime::seconds(20);
  cfg.policy = lb::PolicyKind::kTotalRequest;
  cfg.mechanism = lb::MechanismKind::kBlocking;
  std::cout << "running: " << experiment::describe(cfg) << "\n\n";
  experiment::Experiment e(cfg);
  e.run();

  // Ground truth: every pdflush episode on every Tomcat node.
  std::vector<std::pair<sim::SimTime, sim::SimTime>> truth;
  for (int t = 0; t < e.num_tomcats(); ++t)
    for (const auto& iv : e.flush_intervals(t)) truth.push_back(iv);
  std::cout << "ground truth: " << truth.size() << " pdflush episodes\n\n";

  const auto slack = sim::SimTime::millis(1100);

  // Queue spikes on each Tomcat's committed-queue gauge.
  millib::MillibottleneckDetector spike_detector;
  int spikes = 0, spikes_matched = 0;
  for (int t = 0; t < e.num_tomcats(); ++t) {
    const auto gauge = committed_gauge(e, t);
    for (const auto& ep : spike_detector.detect(gauge)) {
      ++spikes;
      if (millib::overlaps_any(ep, truth, slack)) ++spikes_matched;
      std::cout << "  [queue-spike] tomcat" << t + 1 << "  "
                << ep.start.to_string() << " .. " << ep.end.to_string()
                << "  peak " << std::fixed << std::setprecision(0) << ep.peak
                << "\n";
    }
  }

  std::cout << "\nqueue-spike detector: " << spikes_matched << "/" << spikes
            << " detected episodes overlap a real flush\n"
            << "\n(the detector finds the millibottlenecks without any\n"
            << " knowledge of pdflush — the paper's point that queue spikes\n"
            << " are a reliable, cause-agnostic diagnosis signal)\n";
  return 0;
}
