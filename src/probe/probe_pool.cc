#include "probe/probe_pool.h"

#include <algorithm>
#include <utility>

namespace ntier::probe {

namespace {

constexpr double kMsPerSecond = 1e3;

double age_ms(sim::SimTime now, sim::SimTime at) {
  return (now - at).to_seconds() * kMsPerSecond;
}

}  // namespace

ProbePool::ProbePool(sim::Simulation& simu, int num_workers,
                     Transport transport, ProbeConfig config)
    : sim_(simu),
      num_workers_(num_workers),
      transport_(std::move(transport)),
      config_(config),
      rng_(simu.rng().fork()) {
  if (config_.d < 1) config_.d = 1;
  if (config_.rate_hz <= 0.0) config_.rate_hz = 1.0;
  if (config_.capacity == 0) config_.capacity = 1;
  interval_ = sim::SimTime::from_seconds(1.0 / config_.rate_hz);
  if (config_.enabled && num_workers_ > 0 && transport_)
    sim_.after(interval_, [this] { tick(); });
}

void ProbePool::tick() {
  // Power-of-d target sampling: a partial Fisher-Yates shuffle drawn from the
  // pool's own stream picks min(d, n) distinct workers per tick.
  const int n = num_workers_;
  const int d = std::min(config_.d, n);
  sample_.resize(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) sample_[static_cast<std::size_t>(i)] = i;
  for (int i = 0; i < d; ++i) {
    const auto j = static_cast<std::size_t>(rng_.uniform_int(i, n - 1));
    std::swap(sample_[static_cast<std::size_t>(i)], sample_[j]);
    fire(sample_[static_cast<std::size_t>(i)]);
  }
  sim_.after(interval_, [this] { tick(); });
}

void ProbePool::fire(int worker) {
  ++sent_;
  trace_event(obs::EventKind::kProbeSent, worker,
              static_cast<double>(entries_.size()), 0);
  const ProbeHandle h = in_flight_.insert(InFlight{worker, sim_.now()});
  sim_.after(config_.timeout, [this, h] { on_timeout(h); });
  transport_(worker, [this, h](bool ok, double rif, double latency_ms) {
    on_reply(h, ok, rif, latency_ms);
  });
}

void ProbePool::on_timeout(ProbeHandle h) {
  const InFlight* p = in_flight_.find(h);
  if (p == nullptr) return;  // answered first
  const int worker = p->worker;
  in_flight_.erase(h);
  ++timeouts_;
  trace_event(obs::EventKind::kProbeExpired, worker,
              config_.timeout.to_seconds() * kMsPerSecond, /*aux=*/3);
}

void ProbePool::on_reply(ProbeHandle h, bool ok, double rif,
                         double latency_ms) {
  const InFlight* p = in_flight_.find(h);
  if (p == nullptr) return;  // timed out first
  const InFlight probe = *p;
  in_flight_.erase(h);
  if (!ok) return;
  ++replies_;
  ProbeResult r;
  r.worker = probe.worker;
  r.rif = rif;
  r.local_rif = local_load_ ? local_load_(probe.worker) : 0.0;
  r.latency_ms = latency_ms;
  r.rtt_ms = age_ms(sim_.now(), probe.sent_at);
  r.at = sim_.now();
  insert(r);
  trace_event(obs::EventKind::kProbeReply, probe.worker, rif,
              static_cast<std::int32_t>(latency_ms * 1e3));
}

void ProbePool::insert(ProbeResult r) {
  // One retained result per worker: a fresh reply supersedes the old one.
  entries_.erase(std::remove_if(entries_.begin(), entries_.end(),
                                [&r](const ProbeResult& e) {
                                  return e.worker == r.worker;
                                }),
                 entries_.end());
  if (entries_.size() >= config_.capacity)
    entries_.erase(entries_.begin());  // evict the oldest
  entries_.push_back(r);
}

void ProbePool::expire_now() {
  const sim::SimTime now = sim_.now();
  auto it = entries_.begin();
  while (it != entries_.end()) {
    if (now - it->at > config_.staleness) {
      ++expired_stale_;
      trace_event(obs::EventKind::kProbeExpired, it->worker,
                  age_ms(now, it->at), /*aux=*/1);
      it = entries_.erase(it);
    } else {
      ++it;
    }
  }
}

std::optional<ProbeResult> ProbePool::freshest(int worker) const {
  const sim::SimTime now = sim_.now();
  std::optional<ProbeResult> best;
  for (const ProbeResult& e : entries_) {
    if (e.worker != worker || now - e.at > config_.staleness) continue;
    if (!best || e.at > best->at) best = e;
  }
  return best;
}

void ProbePool::observe(int worker, double rif, double latency_ms) {
  if (!config_.enabled || worker < 0 || worker >= num_workers_) return;
  ++piggybacked_;
  ProbeResult r;
  r.worker = worker;
  r.rif = rif;
  r.local_rif = local_load_ ? local_load_(worker) : 0.0;
  r.latency_ms = latency_ms;
  r.rtt_ms = 0.0;
  r.at = sim_.now();
  insert(r);
}

void ProbePool::note_use(int worker) {
  for (auto it = entries_.begin(); it != entries_.end(); ++it) {
    if (it->worker != worker) continue;
    ++uses_;
    staleness_at_use_ms_sum_ += age_ms(sim_.now(), it->at);
    ++it->uses;
    if (it->uses >= kReuseBudget) {
      ++expired_budget_;
      trace_event(obs::EventKind::kProbeExpired, worker,
                  age_ms(sim_.now(), it->at), /*aux=*/2);
      entries_.erase(it);
    }
    return;
  }
}

void ProbePool::trace_event(obs::EventKind kind, int worker, double value,
                            std::int32_t aux) {
  NTIER_TRACE_EVENT(trace_, sim_.now(), kind, obs::Tier::kBalancer,
                    trace_node_, worker, 0u, value, aux);
}

}  // namespace ntier::probe
