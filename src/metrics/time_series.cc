#include "metrics/time_series.h"

#include <cassert>
#include <stdexcept>

namespace ntier::metrics {

sim::SimTime checked_window(sim::SimTime window) {
  if (window.ns() <= 0)
    throw std::invalid_argument("metrics window must be positive");
  return window;
}

namespace {
std::size_t window_index(sim::SimTime t, sim::SimTime window) {
  if (t.ns() < 0) throw std::invalid_argument("negative timestamp");
  return static_cast<std::size_t>(t.ns() / window.ns());
}
}  // namespace

void TimeSeries::record(sim::SimTime t, double value) {
  const std::size_t i = window_index(t, window_);
  if (i >= windows_.size()) windows_.resize(i + 1);
  windows_[i].add(value);
}

std::int64_t TimeSeries::total_count() const {
  std::int64_t n = 0;
  for (const auto& w : windows_) n += w.count;
  return n;
}

double TimeSeries::global_max() const {
  double m = 0;
  for (const auto& w : windows_) m = std::max(m, w.max_or_zero());
  return m;
}

// ---------------------------------------------------------------------------

GaugeSeries::Window& GaugeSeries::window_at(std::size_t i) {
  if (i >= windows_.size()) windows_.resize(i + 1);
  return windows_[i];
}

void GaugeSeries::advance(sim::SimTime t) {
  if (t < last_t_) throw std::invalid_argument("GaugeSeries: time went backwards");
  // Spread last_value_ over [last_t_, t), window by window.
  while (last_t_ < t) {
    const std::size_t i = window_index(last_t_, window_);
    const sim::SimTime wend = window_ * static_cast<std::int64_t>(i + 1);
    const sim::SimTime seg_end = std::min(wend, t);
    const sim::SimTime span = seg_end - last_t_;
    Window& w = window_at(i);
    w.integral += last_value_ * static_cast<double>(span.ns());
    w.covered += span;
    w.max = std::max(w.max, last_value_);
    w.touched = true;
    last_t_ = seg_end;
  }
}

void GaugeSeries::set(sim::SimTime t, double value) {
  advance(t);
  last_value_ = value;
  // Make the new value visible to the window containing t (max semantics),
  // even if it changes again within the same instant.
  const std::size_t i = window_index(t, window_);
  Window& w = window_at(i);
  w.max = std::max(w.max, value);
  w.touched = true;
}

double GaugeSeries::max(std::size_t i) const {
  if (i >= windows_.size() || !windows_[i].touched) return 0.0;
  return windows_[i].max;
}

double GaugeSeries::time_avg(std::size_t i) const {
  if (i >= windows_.size()) return 0.0;
  const Window& w = windows_[i];
  if (w.covered.ns() == 0) return 0.0;
  return w.integral / static_cast<double>(w.covered.ns());
}

double GaugeSeries::global_max() const {
  double m = 0;
  for (const auto& w : windows_)
    if (w.touched) m = std::max(m, w.max);
  return m;
}

}  // namespace ntier::metrics
