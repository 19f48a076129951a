#include "workload/trace_gen.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace ntier::workload {

namespace {

constexpr double kPi = 3.14159265358979323846;

/// A generated arrival not yet released into the trace. `seq` is its
/// generation index: same-instant arrivals leave in generation order, as a
/// stable sort by time would put them.
struct Pending {
  ArrivalEvent ev;
  std::uint64_t seq;
};

/// Heap order for a min-heap on (at, seq).
bool later(const Pending& a, const Pending& b) {
  return a.ev.at != b.ev.at ? b.ev.at < a.ev.at : b.seq < a.seq;
}

}  // namespace

bool TraceGenSpec::validate(std::string* error) const {
  auto fail = [error](const std::string& why) {
    if (error) *error = "trace-gen spec: " + why;
    return false;
  };
  auto finite = [](double v) { return std::isfinite(v); };
  if (!finite(duration_s) || duration_s <= 0)
    return fail("duration must be finite and > 0");
  if (!finite(base_rps) || base_rps <= 0)
    return fail("base-rps must be finite and > 0");
  if (!finite(diurnal_amplitude) || diurnal_amplitude < 0 ||
      diurnal_amplitude >= 1)
    return fail("diurnal-amplitude must be in [0, 1)");
  if (!finite(diurnal_period_s) || diurnal_period_s < 0)
    return fail("diurnal-period must be >= 0 (0 = one cycle over duration)");
  if (!finite(flash_at_s)) return fail("flash-at must be finite");
  if (flash_at_s >= 0) {
    if (!finite(flash_duration_s) || flash_duration_s <= 0)
      return fail("flash-duration must be finite and > 0");
    if (!finite(flash_multiplier) || flash_multiplier < 1)
      return fail("flash-multiplier must be >= 1");
  }
  if (!finite(session_mean) || session_mean < 1)
    return fail("session-mean must be >= 1");
  if (!finite(think_mean_s) || think_mean_s < 0)
    return fail("think-mean must be >= 0");
  if (!finite(abandon_p) || abandon_p < 0 || abandon_p >= 1)
    return fail("abandon-p must be in [0, 1)");
  return true;
}

double TraceGenerator::rate_at(double t_s) const {
  const double period =
      spec_.diurnal_period_s > 0 ? spec_.diurnal_period_s : spec_.duration_s;
  double r = spec_.base_rps;
  if (spec_.diurnal_amplitude > 0)
    r *= 1.0 + spec_.diurnal_amplitude *
                   std::sin(2.0 * kPi * t_s / period - kPi / 2.0);
  if (spec_.flash_at_s >= 0 && t_s >= spec_.flash_at_s &&
      t_s < spec_.flash_at_s + spec_.flash_duration_s)
    r *= spec_.flash_multiplier;
  return r;
}

ArrivalTrace TraceGenerator::generate(const RubbosWorkload& workload) const {
  std::string why;
  if (!spec_.validate(&why)) throw std::invalid_argument(why);

  ArrivalTrace trace;
  sim::Rng rng(spec_.seed);

  // Session starts are an NHPP, sampled by thinning a homogeneous process
  // at the global peak rate (diurnal peak x flash multiplier). A session of
  // session_mean interactions contributes session_mean arrivals, so the
  // session start rate is rate(t) / session_mean.
  const double flash_mult =
      spec_.flash_at_s >= 0 ? spec_.flash_multiplier : 1.0;
  const double lambda_max = spec_.base_rps *
                            (1.0 + spec_.diurnal_amplitude) * flash_mult /
                            spec_.session_mean;
  const double continue_p =
      spec_.session_mean <= 1.0 ? 0.0 : 1.0 - 1.0 / spec_.session_mean;

  // Pre-size from the expected arrival count, the integral of rate_at over
  // the day (midpoint rule; truncation and abandonment only lower the
  // count), plus eight standard deviations: Poisson sessions of geometric
  // length have a count variance below 2 x session_mean x expected.
  constexpr int kRateSteps = 4096;
  double expected = 0;
  const double dt = spec_.duration_s / kRateSteps;
  for (int i = 0; i < kRateSteps; ++i) expected += rate_at((i + 0.5) * dt) * dt;
  trace.reserve(static_cast<std::size_t>(
      expected + 8.0 * std::sqrt(expected * 2.0 * spec_.session_mean) + 64.0));

  // Sessions start in time order and each walks forward in time, so once a
  // session starts at t, no later session can emit an arrival before t:
  // every pending arrival at or before t is final and leaves the heap in
  // (time, generation) order. The trace is built sorted, with no copy.
  std::vector<Pending> pending;
  std::uint64_t seq = 0;
  auto release_until = [&](sim::SimTime until) {
    while (!pending.empty() && pending.front().ev.at <= until) {
      std::pop_heap(pending.begin(), pending.end(), later);
      const ArrivalEvent& ev = pending.back().ev;
      trace.add_rich(ev.at, ev.client, ev.interaction, ev.key, ev.priority);
      pending.pop_back();
    }
  };

  // Each arrival's request is materialised only for its drawn key and
  // priority, then dropped: one pooled slot serves the whole day.
  proto::RequestPool requests;
  std::uint32_t next_client = 0;
  double t = 0;
  while (true) {
    t += rng.exponential(1.0 / lambda_max);
    if (t >= spec_.duration_s) break;
    if (!rng.bernoulli(rate_at(t) / (lambda_max * spec_.session_mean)))
      continue;
    release_until(sim::SimTime::from_seconds(t));

    // One user session: its own forked stream, so the per-session walk is
    // independent of how many other sessions the thinning loop rejected.
    sim::Rng session_rng = rng.fork();
    const std::uint32_t client = next_client++;
    double st = t;
    while (true) {
      const std::size_t k = workload.next_interaction(session_rng);
      const auto req = workload.materialize(requests, session_rng, 0, client, k);
      pending.push_back(Pending{
          ArrivalEvent{.at = sim::SimTime::from_seconds(st),
                       .key = req->key,
                       .client = client,
                       .interaction = static_cast<std::uint16_t>(k),
                       .priority = req->priority},
          seq++});
      std::push_heap(pending.begin(), pending.end(), later);
      if (!session_rng.bernoulli(continue_p)) break;
      if (spec_.abandon_p > 0 && session_rng.bernoulli(spec_.abandon_p))
        break;
      if (spec_.think_mean_s > 0)
        st += session_rng.exponential(spec_.think_mean_s);
      if (st >= spec_.duration_s) break;
    }
  }
  release_until(sim::SimTime::max());
  return trace;
}

}  // namespace ntier::workload
