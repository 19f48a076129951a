#pragma once

#include <algorithm>
#include <cstdint>
#include <limits>
#include <vector>

#include "sim/time.h"

namespace ntier::metrics {

/// count/sum/min/max of one aggregation window.
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
  double avg() const { return count ? sum / static_cast<double>(count) : 0.0; }
  double max_or_zero() const { return count ? max : 0.0; }
  double min_or_zero() const { return count ? min : 0.0; }
};

/// Validate an aggregation window at construction time: window_index()
/// divides by window.ns(), so a non-positive window is integer
/// divide-by-zero UB rather than a recoverable error. Fail loudly instead.
sim::SimTime checked_window(sim::SimTime window);

/// Fixed-width-window aggregation of point samples (e.g. per-50 ms response
/// times, VLRT counts). The paper's time-series figures are all rendered
/// from this form.
class TimeSeries {
 public:
  /// `window` is the aggregation bin width (the paper uses 50 ms bins).
  /// Must be positive — a zero window would divide by zero in the bin index.
  explicit TimeSeries(sim::SimTime window) : window_(checked_window(window)) {}

  void record(sim::SimTime t, double value);

  sim::SimTime window() const { return window_; }
  std::size_t num_windows() const { return windows_.size(); }
  sim::SimTime window_start(std::size_t i) const {
    return window_ * static_cast<std::int64_t>(i);
  }

  std::int64_t count(std::size_t i) const { return at(i).count; }
  double sum(std::size_t i) const { return at(i).sum; }
  double max(std::size_t i) const { return at(i).max_or_zero(); }
  double min(std::size_t i) const { return at(i).min_or_zero(); }
  double avg(std::size_t i) const { return at(i).avg(); }

  std::int64_t total_count() const;

  /// Largest bin maximum across the whole series (queue peaks, etc.).
  double global_max() const;

 private:
  const WindowStats& at(std::size_t i) const {
    static const WindowStats kEmpty{};
    return i < windows_.size() ? windows_[i] : kEmpty;
  }

  sim::SimTime window_;
  std::vector<WindowStats> windows_;
};

/// Time-weighted gauge (queue length, lb_value, dirty bytes): tracks a value
/// that changes at discrete instants, and reports the per-window
/// time-weighted mean and max. `set()` must be called with non-decreasing
/// timestamps; `finish()` closes the integration at the end of a run.
class GaugeSeries {
 public:
  explicit GaugeSeries(sim::SimTime window) : window_(checked_window(window)) {}

  void set(sim::SimTime t, double value);
  void add(sim::SimTime t, double delta) { set(t, last_value_ + delta); }
  void finish(sim::SimTime t) { advance(t); }

  double current() const { return last_value_; }
  sim::SimTime window() const { return window_; }
  std::size_t num_windows() const { return windows_.size(); }
  sim::SimTime window_start(std::size_t i) const {
    return window_ * static_cast<std::int64_t>(i);
  }

  /// Max value observed at any instant within the window.
  double max(std::size_t i) const;
  /// Time-weighted mean over the window.
  double time_avg(std::size_t i) const;

  double global_max() const;

 private:
  struct Window {
    double integral = 0;            // value * ns
    sim::SimTime covered;           // ns of the window integrated so far
    double max = -std::numeric_limits<double>::infinity();
    bool touched = false;
  };
  void advance(sim::SimTime t);
  Window& window_at(std::size_t i);

  sim::SimTime window_;
  std::vector<Window> windows_;
  sim::SimTime last_t_;
  double last_value_ = 0;
};

}  // namespace ntier::metrics
