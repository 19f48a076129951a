#pragma once

#include <vector>

#include "metrics/time_series.h"
#include "sim/time.h"

namespace ntier::millib {

/// A detected queue spike: contiguous windows whose peak exceeds the
/// detection threshold. This is the paper's diagnosis methodology (§III-B):
/// "large spikes in the [queue length] graph represent an abnormally large
/// number of queued requests, which ... are usually indicative of
/// bottlenecks".
struct SpikeEpisode {
  sim::SimTime start;   // first window above threshold
  sim::SimTime end;     // end of the last window above threshold
  double peak = 0;      // max gauge value inside the episode
};

struct DetectorConfig {
  /// Multiple of the series' median window-max that counts as a spike.
  double median_multiplier = 5.0;
  /// Absolute floor below which a window never counts as a spike (filters
  /// noise on near-idle gauges).
  double min_absolute = 10.0;
  /// Merge episodes separated by fewer than this many quiet windows.
  int merge_gap_windows = 1;
};

/// Offline spike detection over a queue-length gauge.
class MillibottleneckDetector {
 public:
  explicit MillibottleneckDetector(DetectorConfig config = {})
      : config_(config) {}

  std::vector<SpikeEpisode> detect(const metrics::GaugeSeries& gauge) const;

  /// The effective threshold used for `gauge` (for reporting).
  double threshold_for(const metrics::GaugeSeries& gauge) const;

 private:
  DetectorConfig config_;
};

/// True when `episode` overlaps (within `slack`) any of the ground-truth
/// intervals — used to validate the detector against injected stalls.
bool overlaps_any(const SpikeEpisode& episode,
                  const std::vector<std::pair<sim::SimTime, sim::SimTime>>& truth,
                  sim::SimTime slack);

}  // namespace ntier::millib
