#include "millib/detector.h"

#include <algorithm>

namespace ntier::millib {

double MillibottleneckDetector::threshold_for(
    const metrics::GaugeSeries& gauge) const {
  std::vector<double> maxima;
  maxima.reserve(gauge.num_windows());
  for (std::size_t i = 0; i < gauge.num_windows(); ++i)
    maxima.push_back(gauge.max(i));
  if (maxima.empty()) return config_.min_absolute;
  std::nth_element(maxima.begin(), maxima.begin() + maxima.size() / 2,
                   maxima.end());
  const double median = maxima[maxima.size() / 2];
  return std::max(config_.min_absolute, median * config_.median_multiplier);
}

std::vector<SpikeEpisode> MillibottleneckDetector::detect(
    const metrics::GaugeSeries& gauge) const {
  const double threshold = threshold_for(gauge);
  std::vector<SpikeEpisode> episodes;
  bool in_spike = false;
  int quiet = 0;
  for (std::size_t i = 0; i < gauge.num_windows(); ++i) {
    const double v = gauge.max(i);
    if (v >= threshold) {
      if (!in_spike) {
        episodes.push_back(SpikeEpisode{gauge.window_start(i),
                                        gauge.window_start(i + 1), v});
        in_spike = true;
      } else {
        episodes.back().end = gauge.window_start(i + 1);
        episodes.back().peak = std::max(episodes.back().peak, v);
      }
      quiet = 0;
    } else if (in_spike) {
      ++quiet;
      if (quiet > config_.merge_gap_windows) {
        in_spike = false;
        quiet = 0;
      }
    }
  }
  return episodes;
}

bool overlaps_any(
    const SpikeEpisode& episode,
    const std::vector<std::pair<sim::SimTime, sim::SimTime>>& truth,
    sim::SimTime slack) {
  for (const auto& [s, e] : truth) {
    if (episode.start <= e + slack && episode.end + slack >= s) return true;
  }
  return false;
}

}  // namespace ntier::millib
