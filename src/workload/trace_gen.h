#pragma once

#include <cstdint>
#include <string>
#include <string_view>

#include "sim/fields.h"
#include "sim/rng.h"
#include "workload/trace.h"

namespace ntier::workload {

/// Shape of a synthetic "production day": a non-homogeneous Poisson session
/// arrival process with a diurnal rate curve and an optional flash crowd,
/// where each session is a think-time-separated run of RUBBoS interactions
/// (each drawn from the workload's mix) that may abandon early.
/// Parsed from the CLI as a key=value list through its field table below.
struct TraceGenSpec {
  std::uint64_t seed = 42;
  /// Trace horizon in (simulated) seconds; sessions whose arrivals run past
  /// the horizon are cut there.
  double duration_s = 60.0;
  /// Mean offered request rate at the diurnal midpoint.
  double base_rps = 1000.0;
  /// Diurnal modulation: rate(t) = base_rps * (1 + A*sin(2*pi*t/period -
  /// pi/2)), i.e. the day starts at the trough (1-A) and peaks at (1+A)
  /// mid-period. Zero = flat.
  double diurnal_amplitude = 0.0;
  /// Diurnal period; 0 = one full cycle over duration_s (a compressed day).
  double diurnal_period_s = 0.0;
  /// Flash crowd: rate multiplied by flash_multiplier for flash_duration_s
  /// starting at flash_at_s. Negative flash_at_s = no flash crowd.
  double flash_at_s = -1.0;
  double flash_duration_s = 5.0;
  double flash_multiplier = 2.0;
  /// Mean interactions per session (geometric length >= 1).
  double session_mean = 5.0;
  /// Mean think time between a session's interactions, seconds.
  double think_mean_s = 1.0;
  /// Per-interaction probability the user walks away mid-session (on top of
  /// the geometric session end).
  double abandon_p = 0.0;

  bool validate(std::string* error = nullptr) const;
};

/// TraceGenSpec's field table (see sim/fields.h): --trace-gen's keys, the
/// field names without their unit suffixes, in declaration order.
/// sim::spec_text writes the canonical form, which
/// sim::parse_spec<TraceGenSpec> reads back.
constexpr void visit(sim::FieldsOf<TraceGenSpec> auto& c, auto&& row) {
  row("seed", c.seed, sim::Int{});
  row("duration", c.duration_s, sim::Real{});
  row("base-rps", c.base_rps, sim::Real{});
  row("diurnal-amplitude", c.diurnal_amplitude, sim::Real{});
  row("diurnal-period", c.diurnal_period_s, sim::Real{});
  row("flash-at", c.flash_at_s, sim::Real{});
  row("flash-duration", c.flash_duration_s, sim::Real{});
  row("flash-multiplier", c.flash_multiplier, sim::Real{});
  row("session-mean", c.session_mean, sim::Real{});
  row("think-mean", c.think_mean_s, sim::Real{});
  row("abandon-p", c.abandon_p, sim::Real{});
}
constexpr std::string_view spec_name(const TraceGenSpec&) {
  return "trace-gen spec";
}

/// Seeded generator: the same spec + workload always emits a byte-identical
/// trace, so "one day of production traffic" is a single replayable,
/// diff-able artifact.
class TraceGenerator {
 public:
  explicit TraceGenerator(TraceGenSpec spec) : spec_(std::move(spec)) {}

  const TraceGenSpec& spec() const { return spec_; }

  /// Instantaneous offered request rate at time t (seconds): diurnal curve
  /// times flash-crowd multiplier. Exposed for tests.
  double rate_at(double t_s) const;

  /// Emit the trace. Session starts are drawn by thinning a Poisson process
  /// at the spec's peak rate; each session forks its own RNG stream, walks
  /// the workload's interaction model and materialises key/priority draws,
  /// so the trace is *rich* (replays drive the KV tier and brownout exactly
  /// as generated). Arrivals come out in time order (same-instant ones in
  /// generation order), built in place without a sorting pass.
  ArrivalTrace generate(const RubbosWorkload& workload) const;

 private:
  TraceGenSpec spec_;
};

}  // namespace ntier::workload
