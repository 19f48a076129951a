#pragma once

#include <cstdint>
#include <functional>

#include "metrics/time_series.h"
#include "sim/simulation.h"

namespace ntier::os {

/// Dirty-page accounting for one node. Server processes append to their log
/// files through this; pdflush drains it. The dirty-byte gauge is the
/// paper's Fig. 2(e) ("sum of dirty pages"; abrupt drops = flushes).
class PageCache {
 public:
  explicit PageCache(sim::Simulation& simu) : sim_(simu) {}

  PageCache(const PageCache&) = delete;
  PageCache& operator=(const PageCache&) = delete;

  /// Append `bytes` of dirty data (e.g. a log write).
  void write_dirty(std::uint64_t bytes);

  /// Claim every dirty byte for writeback; resets the gauge to zero.
  std::uint64_t take_all_dirty();

  std::uint64_t dirty_bytes() const { return dirty_; }
  std::uint64_t total_written() const { return total_written_; }

  /// Invoked (at most once per crossing) when dirty bytes first exceed the
  /// registered threshold; pdflush uses this for the dirty_background path.
  void set_threshold(std::uint64_t bytes, std::function<void()> cb);

  /// Record the dirty-byte gauge into `g` on every change (null = off; the
  /// caller owns and finishes the series).
  void set_dirty_series(metrics::GaugeSeries* g) { dirty_series_ = g; }

 private:
  sim::Simulation& sim_;
  std::uint64_t dirty_ = 0;
  std::uint64_t total_written_ = 0;
  std::uint64_t threshold_ = 0;
  bool above_threshold_ = false;
  std::function<void()> threshold_cb_;
  metrics::GaugeSeries* dirty_series_ = nullptr;
};

}  // namespace ntier::os
