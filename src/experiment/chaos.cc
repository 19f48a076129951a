#include "experiment/chaos.h"

#include <algorithm>
#include <sstream>
#include <stdexcept>

namespace ntier::experiment {

ChaosController::ChaosController(Experiment& exp, millib::FaultPlan plan)
    : exp_(exp), plan_(std::move(plan)) {
  events_.resize(plan_.specs.size());
  state_.resize(plan_.specs.size());
  for (std::size_t i = 0; i < plan_.specs.size(); ++i)
    events_[i].spec = plan_.specs[i];
}

int ChaosController::target_worker(const millib::FaultSpec& spec) const {
  // Hand-written plans may carry out-of-range indices; fold them into the
  // actual tier width so a plan written for 4 Tomcats still runs against 3.
  const int n = const_cast<Experiment&>(exp_).num_tomcats();
  if (spec.worker < 0) return 0;
  return spec.worker % n;
}

net::Link& ChaosController::client_link() {
  if (auto* replayer = exp_.replayer()) return replayer->link();
  return exp_.mutable_clients().link();
}

void ChaosController::arm() {
  if (armed_) throw std::logic_error("ChaosController::arm called twice");
  armed_ = true;
  auto& sim = exp_.simulation();
  for (std::size_t i = 0; i < plan_.specs.size(); ++i) {
    const auto& spec = plan_.specs[i];
    sim.at(spec.start, [this, i] { apply(i); });
    sim.at(spec.end(), [this, i] { clear(i); });
  }
}

void ChaosController::apply(std::size_t i) {
  const auto& spec = plan_.specs[i];
  auto& st = state_[i];
  auto& sim = exp_.simulation();
  const double stall_factor = std::max(0.0, 1.0 - spec.severity);
  switch (spec.kind) {
    case millib::FaultKind::kCapacityStall: {
      auto& cpu = exp_.tomcat_node(target_worker(spec)).cpu();
      st.saved_cpu_factors = {cpu.capacity_factor()};
      cpu.set_capacity_factor(std::min(st.saved_cpu_factors[0], stall_factor));
      break;
    }
    case millib::FaultKind::kCorrelatedStall: {
      // Every backend at once — the blind spot of per-worker state machines.
      for (int t = 0; t < exp_.num_tomcats(); ++t) {
        auto& cpu = exp_.tomcat_node(t).cpu();
        st.saved_cpu_factors.push_back(cpu.capacity_factor());
        cpu.set_capacity_factor(std::min(st.saved_cpu_factors.back(),
                                         stall_factor));
      }
      break;
    }
    case millib::FaultKind::kCrash: {
      const int w = target_worker(spec);
      exp_.tomcat(w).crash();
      // Fail the queued waiters on every balancer's pool for this worker so
      // parked requests fail over instead of waiting on a dead backend.
      for (int a = 0; a < exp_.num_apaches(); ++a)
        exp_.apache(a).balancer().mutable_pool(w).drain();
      break;
    }
    case millib::FaultKind::kLinkFault:
      client_link().set_fault(spec.extra_latency, spec.loss_probability);
      break;
    case millib::FaultKind::kPoolLeak: {
      const int w = target_worker(spec);
      for (int a = 0; a < exp_.num_apaches(); ++a) {
        auto& pool = exp_.apache(a).balancer().mutable_pool(w);
        int k = 0;
        while (k < spec.leak_slots && pool.try_acquire()) ++k;
        st.leaked.push_back(k);
      }
      break;
    }
    case millib::FaultKind::kDiskDegrade: {
      auto& disk = exp_.tomcat_node(target_worker(spec)).disk();
      st.saved_disk_factor = disk.rate_factor();
      disk.set_rate_factor(
          std::max(0.05, st.saved_disk_factor * (1.0 - spec.severity)));
      break;
    }
    case millib::FaultKind::kReplicaCrash: {
      auto* kv = exp_.kv_tier();
      if (!kv) break;  // MySQL-tier run: nothing to crash.
      const int r =
          spec.worker < 0 ? 0 : spec.worker % exp_.num_kv_replicas();
      kv->on_replica_crashed(r);
      break;
    }
    case millib::FaultKind::kShardMigration: {
      auto* kv = exp_.kv_tier();
      if (!kv) break;
      const int s = spec.worker < 0 ? 0 : spec.worker % kv->num_shards();
      kv->begin_migration(s, spec.duration, spec.severity);
      break;
    }
    case millib::FaultKind::kInvalidationStorm: {
      auto* cache = exp_.cache_tier();
      if (!cache) break;  // No cache tier configured: nothing to storm.
      cache->begin_invalidation_storm(spec.duration, spec.severity);
      break;
    }
    case millib::FaultKind::kGrayDataPath:
      // Differential observability: service demand inflates but the probe
      // path and the piggybacked load reports keep answering from the
      // frozen pre-fault snapshot.
      exp_.tomcat(target_worker(spec)).set_gray_degraded(spec.severity);
      break;
    case millib::FaultKind::kGrayLink:
      // Partial fault on ONE Apache's backend link (worker selects the
      // Apache): requests through that balancer see loss + latency while
      // its siblings — and the health prober's verdicts — stay clean.
      exp_.apache(spec.worker < 0 ? 0 : spec.worker % exp_.num_apaches())
          .route()
          .link()
          .set_fault(spec.extra_latency, spec.loss_probability);
      break;
    case millib::FaultKind::kGraySlowReplica: {
      auto* kv = exp_.kv_tier();
      if (!kv) break;  // MySQL-tier run: nothing to slow.
      const int r =
          spec.worker < 0 ? 0 : spec.worker % exp_.num_kv_replicas();
      kv->replica(r).set_slow(spec.severity);
      break;
    }
  }
  events_[i].applied = sim.now();
}

void ChaosController::clear(std::size_t i) {
  const auto& spec = plan_.specs[i];
  auto& st = state_[i];
  auto& sim = exp_.simulation();
  switch (spec.kind) {
    case millib::FaultKind::kCapacityStall:
      exp_.tomcat_node(target_worker(spec))
          .cpu()
          .set_capacity_factor(st.saved_cpu_factors.at(0));
      break;
    case millib::FaultKind::kCorrelatedStall:
      for (int t = 0; t < exp_.num_tomcats(); ++t)
        exp_.tomcat_node(t).cpu().set_capacity_factor(
            st.saved_cpu_factors.at(static_cast<std::size_t>(t)));
      break;
    case millib::FaultKind::kCrash:
      exp_.tomcat(target_worker(spec)).restart();
      break;
    case millib::FaultKind::kLinkFault:
      client_link().clear_fault();
      break;
    case millib::FaultKind::kPoolLeak: {
      const int w = target_worker(spec);
      for (int a = 0; a < exp_.num_apaches(); ++a) {
        auto& pool = exp_.apache(a).balancer().mutable_pool(w);
        for (int k = 0; k < st.leaked.at(static_cast<std::size_t>(a)); ++k)
          pool.release();
      }
      break;
    }
    case millib::FaultKind::kDiskDegrade:
      exp_.tomcat_node(target_worker(spec))
          .disk()
          .set_rate_factor(st.saved_disk_factor);
      break;
    case millib::FaultKind::kReplicaCrash:
      if (auto* kv = exp_.kv_tier())
        kv->on_replica_recovered(
            spec.worker < 0 ? 0 : spec.worker % exp_.num_kv_replicas());
      break;
    case millib::FaultKind::kShardMigration:
      // begin_migration schedules its own completion at spec.end(); this
      // call is an idempotent backstop.
      if (auto* kv = exp_.kv_tier())
        kv->complete_migration(spec.worker < 0
                                   ? 0
                                   : spec.worker % kv->num_shards());
      break;
    case millib::FaultKind::kInvalidationStorm:
      // The storm's own tick loop stops itself at spec.end(); this call is
      // an idempotent backstop.
      if (auto* cache = exp_.cache_tier()) cache->end_invalidation_storm();
      break;
    case millib::FaultKind::kGrayDataPath:
      exp_.tomcat(target_worker(spec)).clear_gray_degraded();
      break;
    case millib::FaultKind::kGrayLink:
      exp_.apache(spec.worker < 0 ? 0 : spec.worker % exp_.num_apaches())
          .route()
          .link()
          .clear_fault();
      break;
    case millib::FaultKind::kGraySlowReplica:
      if (auto* kv = exp_.kv_tier())
        kv->replica(spec.worker < 0 ? 0 : spec.worker % exp_.num_kv_replicas())
            .clear_slow();
      break;
  }
  events_[i].cleared = sim.now();
  ++cleared_;
}

std::string ChaosController::trace_string() const {
  std::ostringstream os;
  for (const auto& e : events_) {
    os << e.spec.to_string() << " applied=" << e.applied.to_string()
       << " cleared=" << e.cleared.to_string() << '\n';
  }
  return os.str();
}

std::string InvariantReport::to_string() const {
  std::ostringstream os;
  os << "conservation " << (conservation_ok() ? "OK" : "VIOLATED")
     << " (issued=" << issued << " completed=" << completed
     << " failed=" << failed << " dropped=" << dropped
     << " in_flight=" << in_flight << " requests_live=" << requests_live
     << "); pools "
     << (pools_ok() ? "OK" : "VIOLATED") << " (in_use=" << pool_in_use
     << " waiting=" << pool_waiting << "); crash "
     << (crash_ok() ? "OK" : "VIOLATED")
     << " (crashed_accepts=" << crashed_accepts << ")";
  if (kv.reads_issued + kv.writes_issued > 0 || !kv_ok()) {
    os << "; kv " << (kv_ok() ? "OK" : "VIOLATED")
       << " (reads=" << kv.reads_issued << "=" << kv.quorum_reads << "+"
       << kv.quorum_failed_reads << " writes=" << kv.writes_issued << "="
       << kv.quorum_writes << "+" << kv.quorum_failed_writes << "+"
       << kv.migration_shed << " hints_pending=" << kv.hints_pending()
       << " crashed_dispatches=" << kv.crashed_dispatches
       << " in_flight=" << kv_ops_in_flight << " held=" << kv_ops_held
       << ")";
  }
  if (cache.lookups > 0 || !cache_ok()) {
    os << "; cache " << (cache_ok() ? "OK" : "VIOLATED")
       << " (lookups=" << cache.lookups << "=" << cache.hits << "+"
       << cache.misses << " misses=" << cache.misses << "="
       << cache.fills_started << "+" << cache.coalesced_fills
       << " inval=" << cache.invalidations_sent << "="
       << cache.invalidations_delivered << "+" << cache.invalidations_dropped
       << " pending=" << cache_invalidations_pending
       << " in_flight=" << cache_ops_in_flight
       << " fills_held=" << cache_fills_held << ")";
  }
  return os.str();
}

InvariantReport check_invariants(Experiment& e) {
  InvariantReport r;
  const auto& clients = e.clients();
  r.issued = clients.issued();
  r.completed = clients.completed_ok();
  r.failed = clients.failed();
  r.dropped = clients.dropped();
  r.in_flight = clients.in_flight();
  r.requests_live = clients.requests().live();
  if (const auto* replayer = e.replayer())
    r.requests_live += replayer->requests().live();
  for (const server::Route* route : e.routes()) {
    const auto& lb = route->balancer();
    for (int w = 0; w < lb.num_workers(); ++w) {
      r.pool_in_use += lb.pool(w).in_use();
      r.pool_waiting += lb.pool(w).waiting();
    }
  }
  for (int t = 0; t < e.num_tomcats(); ++t)
    r.crashed_accepts += e.tomcat(t).crashed_accepts();
  if (const auto* kv = e.kv_tier()) {
    r.kv = kv->stats();
    r.kv_ops_in_flight = kv->ops_in_flight();
    r.kv_ops_held = kv->ops_held();
  }
  if (const auto* cache = e.cache_tier()) {
    r.cache = cache->stats();
    r.cache_invalidations_pending = cache->invalidations_pending();
    r.cache_ops_in_flight = cache->ops_in_flight();
    r.cache_fills_held = cache->fills_held();
  }
  return r;
}

ChaosRunResult run_chaos(ExperimentConfig config, sim::SimTime traffic,
                         sim::SimTime drain) {
  config.duration = traffic + drain;
  Experiment e(std::move(config));
  e.simulation().at(traffic, [&e] { e.mutable_clients().quiesce(); });
  e.run();

  ChaosRunResult r;
  r.label = e.config().label;
  r.summary = summarize(e);
  r.invariants = check_invariants(e);
  if (e.chaos()) r.fault_trace = e.chaos()->trace_string();
  return r;
}

}  // namespace ntier::experiment
