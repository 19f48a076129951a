#pragma once

#include <cstdint>
#include <limits>

namespace ntier::obs {

/// count/sum/min/max of one aggregation window (mergeable for rollups).
/// Header-only, so metrics::TimeSeries stores its windows in the same form
/// without linking the obs library.
struct WindowStats {
  std::int64_t count = 0;
  double sum = 0;
  double min = std::numeric_limits<double>::infinity();
  double max = -std::numeric_limits<double>::infinity();

  void add(double v) {
    ++count;
    sum += v;
    if (v < min) min = v;
    if (v > max) max = v;
  }
  void merge(const WindowStats& o) {
    count += o.count;
    sum += o.sum;
    if (o.min < min) min = o.min;
    if (o.max > max) max = o.max;
  }
  double avg() const { return count ? sum / static_cast<double>(count) : 0.0; }
  double max_or_zero() const { return count ? max : 0.0; }
  double min_or_zero() const { return count ? min : 0.0; }
};

}  // namespace ntier::obs
