#pragma once

#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <ostream>
#include <string>
#include <vector>

#include "obs/sketch.h"
#include "obs/trace.h"
#include "obs/window_stats.h"
#include "sim/time.h"

namespace ntier::obs {

/// Always-on streaming telemetry: every instrument keeps a multi-resolution
/// timeline (a bounded ring of 50 ms fine windows that roll up into 1 s
/// coarse windows as they age out) plus DDSketches per window and for the
/// whole run — so per-window p50/p99/p99.9 exist at millibottleneck
/// granularity without retaining a single sample, and memory stays bounded
/// no matter how long the run is.
struct TelemetryConfig {
  bool enabled = false;
  SketchConfig sketch;
};

/// Fine resolution is sim::kMetricWindow; fine windows roll up into coarse
/// windows of this width as they age out.
inline constexpr sim::SimTime kCoarseWindow = sim::SimTime::seconds(1);
/// Fine windows kept live (1200 x 50 ms = the last 60 s at full detail).
inline constexpr std::size_t kFineRetention = 1200;
/// Coarse windows kept before the oldest are dropped entirely (4096 x 1 s ≈
/// 68 min of history — the memory bound).
inline constexpr std::size_t kCoarseRetention = 4096;

/// The two-level timeline: record() lands in the fine ring; fine windows
/// that age past the retention bound merge into their coarse window; coarse
/// windows past their own bound are dropped (counted). A run-level
/// WindowStats + sketch always covers everything recorded.
class MultiResTimeline {
 public:
  explicit MultiResTimeline(const TelemetryConfig& cfg);

  /// Samples must arrive with non-decreasing window index (they do in a
  /// discrete-event simulation); a late sample is clamped into the oldest
  /// live fine window.
  void record(sim::SimTime t, double v);

  /// Live fine windows: absolute indices [fine_begin, fine_end).
  std::size_t fine_begin() const { return fine_base_; }
  std::size_t fine_end() const { return fine_base_ + fine_slots_.size(); }
  /// Stats of absolute fine window `i`; nullptr when evicted or unseen.
  const WindowStats* fine_stats(std::size_t i) const;
  const DDSketch* fine_sketch(std::size_t i) const;
  double fine_quantile(std::size_t i, double q) const;

  /// Rolled-up coarse windows: absolute indices [coarse_begin, coarse_end).
  std::size_t coarse_begin() const { return coarse_base_; }
  std::size_t coarse_end() const { return coarse_base_ + coarse_slots_.size(); }
  const WindowStats* coarse_stats(std::size_t i) const;
  const DDSketch* coarse_sketch(std::size_t i) const;

  const WindowStats& totals() const { return totals_; }
  const DDSketch& sketch() const { return run_sketch_; }
  std::uint64_t recorded() const { return recorded_; }
  /// Coarse windows dropped past the retention bound (memory stayed put).
  std::uint64_t coarse_dropped() const { return coarse_dropped_; }

 private:
  struct Slot {
    WindowStats stats;
    DDSketch sketch;
    explicit Slot(const SketchConfig& cfg) : sketch(cfg) {}
  };

  void advance_to(std::size_t fine_abs);
  void evict_oldest_fine();

  SketchConfig sketch_cfg_;

  std::deque<Slot> fine_slots_;    // front = absolute index fine_base_
  std::size_t fine_base_ = 0;
  std::deque<Slot> coarse_slots_;  // front = absolute index coarse_base_
  std::size_t coarse_base_ = 0;

  WindowStats totals_;
  DDSketch run_sketch_;
  std::uint64_t recorded_ = 0;
  std::uint64_t coarse_dropped_ = 0;
};

/// One named streaming instrument (e.g. "client.rt_ms", "tomcat2.committed").
class Instrument {
 public:
  Instrument(std::string name, Tier tier, int node, const TelemetryConfig& cfg)
      : name_(std::move(name)), tier_(tier), node_(node), timeline_(cfg) {}

  void record(sim::SimTime t, double v) { timeline_.record(t, v); }

  const std::string& name() const { return name_; }
  Tier tier() const { return tier_; }
  int node() const { return node_; }
  const MultiResTimeline& timeline() const { return timeline_; }

  /// CSV rows (no header): coarse windows first (rolled-up history), then
  /// the live fine windows. Columns:
  /// instrument,window_start_s,width_s,count,avg,max,p50,p95,p99
  void to_csv(std::ostream& os) const;

 private:
  std::string name_;
  Tier tier_;
  int node_;
  MultiResTimeline timeline_;
};

/// Owns every instrument of a run; iteration and CSV output are in name
/// order (std::map), so exports are byte-deterministic.
class TelemetryRegistry {
 public:
  explicit TelemetryRegistry(TelemetryConfig cfg = {}) : cfg_(std::move(cfg)) {}

  /// Get-or-create. Pointers remain stable for the registry's lifetime, so
  /// hot paths resolve their instrument once and record through the pointer.
  Instrument& instrument(const std::string& name, Tier tier = Tier::kClient,
                         int node = -1);
  const Instrument* find(const std::string& name) const;

  std::size_t size() const { return instruments_.size(); }
  const TelemetryConfig& config() const { return cfg_; }

  template <typename Fn>
  void for_each(Fn&& fn) const {
    for (const auto& [name, ins] : instruments_) fn(*ins);
  }

  /// CSV with header, all instruments stacked.
  void to_csv(std::ostream& os) const;

 private:
  TelemetryConfig cfg_;
  std::map<std::string, std::unique_ptr<Instrument>> instruments_;
};

/// The TraceSink that feeds the standard instruments from the cross-tier
/// event stream: client response times and retransmits, per-Tomcat committed
/// queues (rebuilt from balancer deltas, the same accounting the offline
/// analyzer uses) and iowait — plus, when a cache tier emits, the rolling
/// hit indicator ("cache.hit": 1 per hit, 0 per miss, so a window avg() is
/// the windowed hit ratio) and the invalidation-queue backlog sampled at
/// each delivery/drop. Instrument pointers are resolved once at
/// construction so the per-event cost is a switch plus a record().
class TelemetryFeed : public TraceSink {
 public:
  TelemetryFeed(TelemetryRegistry& registry, int num_tomcats);

  void observe(const TraceEvent& e) override;

 private:
  Instrument* rt_ = nullptr;
  Instrument* retransmits_ = nullptr;
  Instrument* cache_hit_ = nullptr;
  Instrument* cache_backlog_ = nullptr;
  std::vector<Instrument*> committed_;
  std::vector<Instrument*> iowait_;
  std::vector<double> committed_now_;
};

}  // namespace ntier::obs
