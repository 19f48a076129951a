#include "lb/load_balancer.h"

#include <algorithm>
#include <bit>
#include <cassert>
#include <stdexcept>

namespace ntier::lb {

namespace {

/// A re-trip within this window of the previous trip is a *flap*: the worker
/// passed its probes (or half-open trials) and immediately failed on the data
/// path again — the signature of a gray fault. Each consecutive flap doubles
/// the next open dwell, up to kMaxFlapBackoff doublings, so a flapping worker
/// spends exponentially longer out of rotation instead of oscillating at the
/// open_duration cadence.
constexpr sim::SimTime kFlapWindow = sim::SimTime::seconds(2);
constexpr int kMaxFlapBackoff = 4;

/// Validated per-worker records: tomcat_id = index.
std::vector<WorkerRecord> make_records(int num_workers) {
  if (num_workers < 1)
    throw std::invalid_argument("LoadBalancer: num_workers must be >= 1");
  std::vector<WorkerRecord> records(static_cast<std::size_t>(num_workers));
  for (int i = 0; i < num_workers; ++i)
    records[static_cast<std::size_t>(i)].tomcat_id = i;
  return records;
}

/// Call fn(i) for every set bit i of `bits`, word `w` of a worker bitset.
template <typename Fn>
void for_each_bit(std::uint64_t bits, std::size_t w, Fn fn) {
  for (; bits != 0; bits &= bits - 1)
    fn(w * 64 + static_cast<std::size_t>(std::countr_zero(bits)));
}

}  // namespace

LoadBalancer::LoadBalancer(sim::Simulation& simu, int num_workers,
                           std::unique_ptr<LbPolicy> policy,
                           std::unique_ptr<EndpointAcquirer> acquirer,
                           BalancerConfig config)
    : sim_(simu),
      policy_(std::move(policy)),
      acquirer_(std::move(acquirer)),
      config_(std::move(config)),
      records_(make_records(num_workers)),
      index_(records_),
      rng_(simu.rng().fork()),
      words_(index_.num_words()) {
  pools_.reserve(static_cast<std::size_t>(num_workers));
  for (int i = 0; i < num_workers; ++i)
    pools_.emplace_back(config_.endpoint_pool_size);
}

void LoadBalancer::set_series(std::span<metrics::GaugeSeries> lb_value,
                              std::span<metrics::GaugeSeries> committed,
                              std::span<metrics::TimeSeries> assignments) {
  assert(lb_value.empty() || lb_value.size() == records_.size());
  assert(committed.empty() || committed.size() == records_.size());
  assert(assignments.empty() || assignments.size() == records_.size());
  lb_value_series_ = lb_value;
  committed_series_ = committed;
  assignment_series_ = assignments;
}

void LoadBalancer::trace_event(obs::EventKind kind, int worker,
                               std::uint64_t request, double value,
                               std::int32_t aux) {
  NTIER_TRACE_EVENT(trace_events_, sim_.now(), kind, obs::Tier::kBalancer,
                    trace_node_, worker, request, value, aux);
}

void LoadBalancer::trace_lb_value(int idx) {
  trace_event(obs::EventKind::kLbValue, idx, 0,
              records_[static_cast<std::size_t>(idx)].lb_value);
  if (lb_value_series_.empty()) return;
  lb_value_series_[static_cast<std::size_t>(idx)].set(
      sim_.now(), records_[static_cast<std::size_t>(idx)].lb_value);
}

void LoadBalancer::set_committed(int idx, int delta) {
  auto& rec = records_[static_cast<std::size_t>(idx)];
  rec.committed += delta;
  assert(rec.committed >= 0);
  if (!committed_series_.empty())
    committed_series_[static_cast<std::size_t>(idx)].set(sim_.now(),
                                                         rec.committed);
}

bool LoadBalancer::eligible(WorkerRecord& rec) {
  // An open breaker overrides the mod_jk state machine entirely: the worker
  // only re-enters rotation through report_probe's half-open transition.
  if (rec.breaker_open) return false;
  switch (rec.state) {
    case WorkerState::kAvailable:
      return true;
    case WorkerState::kBusy:
      if (sim_.now() >= rec.state_until) {
        rec.state = WorkerState::kAvailable;  // lazy Busy recovery
        index_.touch(rec.tomcat_id);
        return true;
      }
      return false;
    case WorkerState::kError:
      if (sim_.now() >= rec.state_until) {
        rec.state = WorkerState::kAvailable;  // mod_jk `retry` elapsed
        rec.consecutive_failures = 0;
        index_.touch(rec.tomcat_id);
        return true;
      }
      return false;
  }
  return false;
}

void LoadBalancer::open_breaker(WorkerRecord& rec) {
  const auto& bc = config_.breaker;
  // Flap hysteresis: a re-trip hot on the heels of the previous one means
  // the worker passed its readmission checks and failed again on the data
  // path — hold it out exponentially longer each time.
  if (rec.breaker_trips > 0 &&
      sim_.now() <= rec.breaker_last_trip + kFlapWindow) {
    rec.flap_streak = std::min(rec.flap_streak + 1, kMaxFlapBackoff);
    ++rec.breaker_flaps;
  } else {
    rec.flap_streak = 0;
  }
  rec.breaker_last_trip = sim_.now();
  sim::SimTime dwell = bc.open_duration;
  for (int k = 0; k < rec.flap_streak; ++k) dwell = dwell + dwell;
  rec.breaker_open = true;
  rec.breaker_until = sim_.now() + dwell;
  rec.half_open_left = 0;
  ++rec.breaker_trips;
  index_.touch(rec.tomcat_id);
}

void LoadBalancer::mark_failure(WorkerRecord& rec) {
  ++rec.acquire_failures;
  // A failed trial request while half-open re-opens the breaker immediately:
  // the worker claimed recovery and could not back it up.
  if (config_.breaker.enabled && rec.half_open_left > 0) {
    open_breaker(rec);
    trace_event(obs::EventKind::kBreakerState, rec.tomcat_id, 0, 1.0,
                /*aux=*/1);  // re-opened from half-open
  }
  // Concurrent waiters that started polling before the worker was sidelined
  // all fail around the same instant; only the first of them escalates the
  // state (mod_jk marks the worker once, the rest just observe it Busy).
  if ((rec.state == WorkerState::kBusy || rec.state == WorkerState::kError) &&
      sim_.now() < rec.state_until)
    return;
  ++rec.consecutive_failures;
  if (rec.consecutive_failures >= config_.failures_to_error) {
    rec.state = WorkerState::kError;
    rec.state_until = sim_.now() + config_.error_recovery;
  } else {
    rec.state = WorkerState::kBusy;
    rec.state_until = sim_.now() + config_.busy_recovery;
  }
  index_.touch(rec.tomcat_id);
}

void LoadBalancer::try_next(AssignHandle h) {
  const proto::RequestRef& req = assigns_[h].req;
  const std::uint64_t* tried = attempted(h);
  const auto was_tried = [tried](std::size_t i) {
    return (tried[i / 64] >> (i % 64)) & 1U;
  };
  int idx = -1;
  // Sticky routing first: a request that carries a session route goes back
  // to its owner whenever that worker is eligible and not yet attempted.
  const int route = req->session_route;
  if (config_.sticky_sessions && route >= 0 && route < num_workers()) {
    auto& owner = records_[static_cast<std::size_t>(route)];
    if (!was_tried(static_cast<std::size_t>(route)) && eligible(owner)) {
      idx = route;
      ++sticky_hits_;
    } else if (config_.sticky_force) {
      ++balancer_errors_;  // mod_jk sticky_session_force: no fallback
      settle(h, -1);
      return;
    }
  }
  if (idx < 0) {
    // Only workers out of rotation need a look: eligible() may lazily
    // recover them (touching them back in); the rest are traced as skipped,
    // in index order like mod_jk's scan.
    std::uint64_t any_tried = 0;
    for (std::size_t w = 0; w < words_; ++w) {
      any_tried |= tried[w];
      for_each_bit(index_.outside(w) & ~tried[w], w, [&](std::size_t i) {
        auto& rec = records_[i];
        if (eligible(rec)) return;
        // aux encodes why: 1 = Busy, 2 = Error, 3 = breaker open.
        trace_event(obs::EventKind::kGetEndpointSkip, static_cast<int>(i),
                    req->id, rec.lb_value,
                    rec.breaker_open ? 3 : static_cast<std::int32_t>(rec.state));
      });
    }
    // A retry hides its tried workers from the index for this one decision.
    const auto mask_tried = [&](bool hide) {
      for (std::size_t w = 0; w < words_; ++w)
        for_each_bit(tried[w], w, [&](std::size_t i) {
          const int t = static_cast<int>(i);
          if (hide)
            index_.set(t, false);
          else
            index_.touch(t);
        });
    };
    if (any_tried != 0) mask_tried(true);
    idx = index_.empty() ? -1
                         : policy_->pick_for(records_, index_, rng_, *req);
    if (any_tried != 0) mask_tried(false);
  }
  if (idx < 0) {
    ++balancer_errors_;
    settle(h, -1);
    return;
  }

  attempted(h)[static_cast<std::size_t>(idx) / 64] |=
      std::uint64_t{1} << (static_cast<std::size_t>(idx) % 64);
  auto& rec = records_[static_cast<std::size_t>(idx)];
  // The request is now committed to this candidate: even if the acquirer
  // spends 300 ms polling, the paper's per-Tomcat queue accounting counts it
  // against this backend.
  set_committed(idx, +1);
  trace_event(obs::EventKind::kGetEndpointAttempt, idx, req->id,
              static_cast<double>(pools_[static_cast<std::size_t>(idx)].in_use()));
  acquirer_->set_trace_context({trace_events_, trace_node_, idx, req->id});

  acquirer_->acquire(
      sim_, pools_[static_cast<std::size_t>(idx)], rec,
      [this, h, idx](bool ok) {
        auto& r = records_[static_cast<std::size_t>(idx)];
        const std::uint64_t request = assigns_[h].req->id;
        if (ok) {
          trace_event(
              obs::EventKind::kEndpointAcquire, idx, request,
              static_cast<double>(pools_[static_cast<std::size_t>(idx)].in_use()));
          r.consecutive_failures = 0;
          if (r.half_open_left > 0) {
            --r.half_open_left;
            // Trial quota spent without a failure: the breaker closes.
            if (r.half_open_left == 0)
              trace_event(obs::EventKind::kBreakerState, idx, request, 0.0);
          }
          ++r.assigned;
          ++r.outstanding;
          policy_->on_assigned(r, *assigns_[h].req);  // Algorithm 2/4 increment point
          index_.touch(idx);
          trace_lb_value(idx);
          if (!assignment_series_.empty())
            assignment_series_[static_cast<std::size_t>(idx)].record(sim_.now(),
                                                                     1.0);
          // Deliberately no write into the request: which field the chosen
          // index means (tomcat, DB replica, ...) is the caller's business.
          settle(h, idx);
        } else {
          trace_event(
              obs::EventKind::kGetEndpointTimeout, idx, request,
              static_cast<double>(pools_[static_cast<std::size_t>(idx)].in_use()));
          mark_failure(r);
          set_committed(idx, -1);
          try_next(h);
        }
      });
}

void LoadBalancer::settle(AssignHandle h, int idx) {
  const auto done = assigns_.take(h).done;
  done(idx);
}

void LoadBalancer::assign(const proto::RequestRef& req,
                          sim::Callback<void(int)> done) {
  const AssignHandle h = assigns_.insert(AssignContext{req, std::move(done)});
  const std::size_t need = assigns_.slot_count() * words_;
  if (attempted_.size() < need) attempted_.resize(need);
  std::fill_n(attempted(h), words_, std::uint64_t{0});
  try_next(h);
}

void LoadBalancer::report_failure(int idx) {
  mark_failure(records_[static_cast<std::size_t>(idx)]);
}

void LoadBalancer::report_probe(int idx, bool ok, sim::SimTime rtt) {
  auto& rec = records_[static_cast<std::size_t>(idx)];
  ++rec.probes;
  if (!ok) ++rec.probe_failures;
  rec.probe_rtt_ms = rtt.to_seconds() * 1e3;
  const double obs = ok ? 1.0 : 0.0;
  rec.health += kHealthEwmaAlpha * (obs - rec.health);
  if (!config_.breaker.enabled) return;

  if (rec.breaker_open) {
    if (ok && sim_.now() >= rec.breaker_until) {
      // Half-open: re-admit the worker for a handful of trial requests.
      // Reset the mod_jk side too — the probe evidence supersedes whatever
      // Busy/Error verdict the stall left behind.
      rec.breaker_open = false;
      rec.half_open_left = kHalfOpenTrials;
      rec.state = WorkerState::kAvailable;
      rec.consecutive_failures = 0;
      rec.health = std::max(rec.health, kBreakerTripThreshold);
      index_.touch(idx);
      trace_event(obs::EventKind::kBreakerState, idx, 0, 2.0);  // half-open
    } else if (!ok) {
      rec.breaker_until = sim_.now() + config_.breaker.open_duration;
    }
    return;
  }
  if (rec.health < kBreakerTripThreshold) {
    open_breaker(rec);
    trace_event(obs::EventKind::kBreakerState, idx, 0, 1.0);  // open
  }
}

int LoadBalancer::reset_breakers() {
  int reset = 0;
  for (std::size_t i = 0; i < records_.size(); ++i) {
    auto& rec = records_[i];
    rec.flap_streak = 0;
    if (!rec.breaker_open && rec.half_open_left == 0) continue;
    rec.breaker_open = false;
    rec.half_open_left = 0;
    rec.state = WorkerState::kAvailable;
    rec.consecutive_failures = 0;
    rec.health = std::max(rec.health, kBreakerTripThreshold);
    index_.touch(static_cast<int>(i));
    trace_event(obs::EventKind::kBreakerState, static_cast<int>(i), 0,
                3.0);  // recovery reset
    ++reset;
  }
  return reset;
}

std::uint64_t LoadBalancer::breaker_trips() const {
  std::uint64_t total = 0;
  for (const auto& rec : records_) total += rec.breaker_trips;
  return total;
}

void LoadBalancer::on_response(int idx, const proto::RequestRef& req) {
  auto& rec = records_[static_cast<std::size_t>(idx)];
  pools_[static_cast<std::size_t>(idx)].release();
  trace_event(obs::EventKind::kEndpointRelease, idx, req->id,
              static_cast<double>(pools_[static_cast<std::size_t>(idx)].in_use()));
  assert(rec.outstanding > 0);
  --rec.outstanding;
  ++rec.completed;
  policy_->on_completed(rec, *req);  // Algorithm 3 increment / 4 decrement
  index_.touch(idx);
  trace_lb_value(idx);
  set_committed(idx, -1);
}

}  // namespace ntier::lb
