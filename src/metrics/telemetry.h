#pragma once

#include <map>
#include <memory>
#include <ostream>
#include <string>
#include <vector>

#include "metrics/time_series.h"
#include "obs/trace.h"
#include "sim/time.h"

namespace ntier::metrics {

/// Streaming telemetry: named per-tier instruments, each a TimeSeries of
/// 50 ms windows (count/avg/max) kept for the whole run.
struct TelemetryConfig {
  bool enabled = false;
};

/// One named streaming instrument (e.g. "client.rt_ms", "tomcat2.committed").
/// It either records into its own series or, for a signal another component
/// already records, reads that component's series.
class Instrument {
 public:
  explicit Instrument(std::string name) : name_(std::move(name)) {}
  Instrument(std::string name, const TimeSeries& source)
      : name_(std::move(name)), source_(&source) {}

  void record(sim::SimTime t, double v) { own_.record(t, v); }

  const std::string& name() const { return name_; }
  const TimeSeries& series() const { return source_ ? *source_ : own_; }

  /// CSV rows (no header), one per non-empty window. Columns:
  /// instrument,window_start_s,width_s,count,avg,max
  void to_csv(std::ostream& os) const;

 private:
  std::string name_;
  TimeSeries own_{sim::kMetricWindow};
  const TimeSeries* source_ = nullptr;
};

/// Owns every instrument of a run; iteration and CSV output are in name
/// order (std::map), so exports are byte-deterministic.
class TelemetryRegistry {
 public:
  /// Get-or-create. Pointers remain stable for the registry's lifetime, so
  /// hot paths resolve their instrument once and record through the pointer.
  Instrument& instrument(const std::string& name);
  /// Register a new instrument `name` that reads `source` (which must
  /// outlive the registry) instead of recording its own samples.
  void add_view(const std::string& name, const TimeSeries& source);
  const Instrument* find(const std::string& name) const;

  std::size_t size() const { return instruments_.size(); }

  template <typename Fn>
  void for_each(Fn&& fn) const {
    for (const auto& [name, ins] : instruments_) fn(*ins);
  }

  /// CSV with header, all instruments stacked.
  void to_csv(std::ostream& os) const;

 private:
  std::map<std::string, std::unique_ptr<Instrument>> instruments_;
};

/// The TraceSink that feeds the standard instruments from the cross-tier
/// event stream: client SYN retransmits, per-Tomcat committed queues (rebuilt
/// from balancer deltas, the same accounting the offline analyzer uses) and
/// iowait — plus, when a cache tier emits, the rolling hit indicator
/// ("cache.hit": 1 per hit, 0 per miss, so a window avg() is the windowed hit
/// ratio) and the invalidation-queue backlog sampled at each delivery/drop.
/// Client response times are not fed here: the request log records them.
/// Instrument pointers are resolved once at construction so the per-event
/// cost is a switch plus a record().
class TelemetryFeed : public obs::TraceSink {
 public:
  TelemetryFeed(TelemetryRegistry& registry, int num_tomcats);

  void observe(const obs::TraceEvent& e) override;

 private:
  Instrument* retransmits_ = nullptr;
  Instrument* cache_hit_ = nullptr;
  Instrument* cache_backlog_ = nullptr;
  std::vector<Instrument*> committed_;
  std::vector<Instrument*> iowait_;
  std::vector<double> committed_now_;
};

}  // namespace ntier::metrics
