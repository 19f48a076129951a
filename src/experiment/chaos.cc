#include "experiment/chaos.h"

#include <algorithm>
#include <span>
#include <sstream>
#include <stdexcept>

#include "sim/rng.h"

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
      exp_.mutable_clients().link().set_fault(spec.extra_latency,
                                              spec.loss_probability);
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
          .tomcat_link()
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
  ++applied_;
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
      exp_.mutable_clients().link().clear_fault();
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
          .tomcat_link()
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
     << " in_flight=" << in_flight << "); pools "
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
       << " in_flight=" << kv_ops_in_flight << ")";
  }
  if (cache.lookups > 0 || !cache_ok()) {
    os << "; cache " << (cache_ok() ? "OK" : "VIOLATED")
       << " (lookups=" << cache.lookups << "=" << cache.hits << "+"
       << cache.misses << " misses=" << cache.misses << "="
       << cache.fills_started << "+" << cache.coalesced_fills
       << " inval=" << cache.invalidations_sent << "="
       << cache.invalidations_delivered << "+" << cache.invalidations_dropped
       << " pending=" << cache_invalidations_pending
       << " in_flight=" << cache_ops_in_flight << ")";
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
  for (int a = 0; a < e.num_apaches(); ++a) {
    auto& lb = e.apache(a).balancer();
    for (int w = 0; w < lb.num_workers(); ++w) {
      r.pool_in_use += lb.pool(w).in_use();
      r.pool_waiting += lb.pool(w).waiting();
    }
  }
  for (int t = 0; t < e.num_tomcats(); ++t) {
    if (e.db_router(t).has_balancer()) {
      auto& lb = e.db_router(t).balancer();
      for (int w = 0; w < lb.num_workers(); ++w) {
        r.pool_in_use += lb.pool(w).in_use();
        r.pool_waiting += lb.pool(w).waiting();
      }
    }
    r.crashed_accepts += e.tomcat(t).crashed_accepts();
  }
  if (const auto* kv = e.kv_tier()) {
    r.kv = kv->stats();
    r.kv_ops_in_flight = kv->ops_in_flight();
  }
  if (const auto* cache = e.cache_tier()) {
    r.cache = cache->stats();
    r.cache_invalidations_pending = cache->invalidations_pending();
    r.cache_ops_in_flight = cache->ops_in_flight();
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
  for (int a = 0; a < e.num_apaches(); ++a) {
    auto& apache = e.apache(a);
    r.breaker_trips += apache.balancer().breaker_trips();
    if (apache.prober()) {
      r.probes_sent += apache.prober()->probes_sent();
      r.probes_timed_out += apache.prober()->probes_timed_out();
    }
  }
  return r;
}

namespace {

/// The loop every chaos matrix shares: one run per policy x mechanism cell,
/// the same plan in each, on the matrix testbed with the options' resilience,
/// recovery and overload layers. Cells are labelled "<name>/<policy>/<mech>".
std::vector<ChaosRunResult> run_cells(
    const ChaosMatrixOptions& opt, const std::string& name,
    const millib::FaultPlan& plan, std::span<const lb::PolicyKind> policies,
    std::span<const lb::MechanismKind> mechanisms,
    server::DbTier db_tier = server::DbTier::kMysql, bool cache_tier = false) {
  std::vector<ChaosRunResult> results;
  for (auto policy : policies) {
    for (auto mechanism : mechanisms) {
      ExperimentConfig c;
      c.label = name + "/" + lb::to_string(policy) + "/" +
                lb::to_string(mechanism);
      c.num_apaches = opt.num_apaches;
      c.num_tomcats = opt.num_tomcats;
      c.num_clients = opt.num_clients;
      c.think_mean = opt.think_mean;
      c.warmup = sim::SimTime::millis(500);
      c.policy = policy;
      c.mechanism = mechanism;
      c.db_tier = db_tier;
      if (db_tier == server::DbTier::kKv) c.kv.replicas = opt.kv_replicas;
      c.cache_tier = cache_tier;
      if (cache_tier) c.cache.nodes = opt.cache_nodes;
      // Organic millibottlenecks off: every disturbance comes from the plan,
      // so a violated invariant is attributable.
      c.tomcat_millibottlenecks = false;
      c.tracing = false;
      c.fault_plan = plan;
      if (opt.resilience) c.enable_resilience();
      if (opt.recovery) c.recovery.enabled = true;
      if (opt.overload != control::OverloadMode::kNone)
        c.overload = control::make_overload(opt.overload);
      results.push_back(run_chaos(std::move(c), opt.traffic, opt.drain));
    }
  }
  return results;
}

}  // namespace

millib::FaultPlan matrix_plan(const ChaosMatrixOptions& opt) {
  millib::FaultPlanConfig fc;
  fc.initial_offset = sim::SimTime::seconds(1);
  fc.mean_gap = sim::SimTime::millis(800);
  fc.max_duration = sim::SimTime::millis(1200);
  fc.max_faults = 10;
  // Leave room at the end of the traffic window for the longest fault to
  // clear while requests still flow.
  fc.horizon = opt.traffic - fc.max_duration;
  return millib::FaultPlan::randomized(opt.chaos_seed, fc, opt.num_tomcats);
}

std::vector<ChaosRunResult> run_chaos_matrix(const ChaosMatrixOptions& opt) {
  static constexpr lb::PolicyKind kPolicies[] = {
      lb::PolicyKind::kTotalRequest, lb::PolicyKind::kTotalTraffic,
      lb::PolicyKind::kCurrentLoad,  lb::PolicyKind::kSessions,
      lb::PolicyKind::kRoundRobin,   lb::PolicyKind::kRandom,
      lb::PolicyKind::kTwoChoices};
  static constexpr lb::MechanismKind kMechanisms[] = {
      lb::MechanismKind::kBlocking, lb::MechanismKind::kNonBlocking,
      lb::MechanismKind::kQueueing};

  return run_cells(opt, "chaos", matrix_plan(opt), kPolicies, kMechanisms);
}

millib::FaultPlan gray_matrix_plan(const ChaosMatrixOptions& opt) {
  // Hand-written: every fault is gray (the data path degrades while the
  // probe path stays healthy), and the second data-path fault overlaps the
  // link fault so two simultaneous gray faults are exercised. Targets are
  // seeded so different seeds stress different workers.
  const auto at = [&](double frac) {
    return sim::SimTime::from_seconds(opt.traffic.to_seconds() * frac);
  };
  const int fleet = std::max(1, opt.num_tomcats);
  const int t1 = static_cast<int>(sim::Rng::mix64(opt.chaos_seed) %
                                  static_cast<std::uint64_t>(fleet));
  const int t2 = (t1 + 1) % fleet;

  millib::FaultPlan plan;
  millib::FaultSpec gray1;
  gray1.kind = millib::FaultKind::kGrayDataPath;
  gray1.worker = t1;
  gray1.start = at(0.15);
  gray1.duration = at(0.35) - at(0.15);
  gray1.severity = 0.9;
  plan.specs.push_back(gray1);

  millib::FaultSpec link;
  link.kind = millib::FaultKind::kGrayLink;
  link.worker = 0;  // Apache index for this kind
  link.start = at(0.45);
  link.duration = at(0.70) - at(0.45);
  link.extra_latency = sim::SimTime::millis(5);
  link.loss_probability = 0.3;
  plan.specs.push_back(link);

  millib::FaultSpec gray2;
  gray2.kind = millib::FaultKind::kGrayDataPath;
  gray2.worker = t2;
  gray2.start = at(0.55);
  gray2.duration = at(0.75) - at(0.55);
  gray2.severity = 0.8;
  plan.specs.push_back(gray2);
  return plan;
}

std::vector<ChaosRunResult> run_gray_chaos_matrix(
    const ChaosMatrixOptions& opt) {
  static constexpr lb::PolicyKind kPolicies[] = {
      lb::PolicyKind::kTotalRequest, lb::PolicyKind::kCurrentLoad,
      lb::PolicyKind::kRoundRobin, lb::PolicyKind::kTwoChoices};
  static constexpr lb::MechanismKind kMechanisms[] = {
      lb::MechanismKind::kBlocking, lb::MechanismKind::kNonBlocking};

  return run_cells(opt, "gray-chaos", gray_matrix_plan(opt), kPolicies,
                   kMechanisms);
}

millib::FaultPlan kv_matrix_plan(const ChaosMatrixOptions& opt) {
  // Hand-written, not randomized: the crashes must not overlap (so every
  // shard keeps >= N-1 live members and the R=W=2 quorums never fail) and
  // must recover before traffic ends (so hinted handoff replays while the
  // run can still observe it). Spread crash targets and migration shards
  // with the chaos seed so different seeds stress different ring positions.
  const auto at = [&](double frac) {
    return sim::SimTime::from_seconds(opt.traffic.to_seconds() * frac);
  };
  const int fleet = std::max(1, opt.kv_replicas);
  const int r1 = static_cast<int>(sim::Rng::mix64(opt.chaos_seed) %
                                  static_cast<std::uint64_t>(fleet));
  const int r2 = (r1 + 1 + static_cast<int>(
                               sim::Rng::mix64(opt.chaos_seed + 1) %
                               static_cast<std::uint64_t>(fleet - 1 > 0
                                                              ? fleet - 1
                                                              : 1))) %
                 fleet;

  millib::FaultPlan plan;
  millib::FaultSpec crash1;
  crash1.kind = millib::FaultKind::kReplicaCrash;
  crash1.worker = r1;
  crash1.start = at(0.15);
  crash1.duration = at(0.25) - at(0.15);
  plan.specs.push_back(crash1);

  millib::FaultSpec mig1;
  mig1.kind = millib::FaultKind::kShardMigration;
  mig1.worker = static_cast<int>(sim::Rng::mix64(opt.chaos_seed + 2) % 16);
  mig1.start = at(0.30);
  mig1.duration = at(0.50) - at(0.30);
  mig1.severity = 1.0;
  plan.specs.push_back(mig1);

  millib::FaultSpec crash2;
  crash2.kind = millib::FaultKind::kReplicaCrash;
  crash2.worker = r2 == r1 ? (r1 + 1) % fleet : r2;
  crash2.start = at(0.55);
  crash2.duration = at(0.80) - at(0.55);
  plan.specs.push_back(crash2);

  millib::FaultSpec mig2;
  mig2.kind = millib::FaultKind::kShardMigration;
  mig2.worker = static_cast<int>(sim::Rng::mix64(opt.chaos_seed + 3) % 16);
  mig2.start = at(0.70);
  mig2.duration = at(0.85) - at(0.70);
  mig2.severity = 0.5;
  plan.specs.push_back(mig2);
  return plan;
}

std::vector<ChaosRunResult> run_kv_chaos_matrix(const ChaosMatrixOptions& opt) {
  static constexpr lb::PolicyKind kPolicies[] = {
      lb::PolicyKind::kCurrentLoad, lb::PolicyKind::kRoundRobin,
      lb::PolicyKind::kTwoChoices, lb::PolicyKind::kSourceHash};
  static constexpr lb::MechanismKind kMechanisms[] = {
      lb::MechanismKind::kBlocking, lb::MechanismKind::kQueueing};

  return run_cells(opt, "kv-chaos", kv_matrix_plan(opt), kPolicies,
                   kMechanisms, server::DbTier::kKv);
}

millib::FaultPlan cache_matrix_plan(const ChaosMatrixOptions& opt) {
  // Hand-written: two invalidation storms bracketing one recovering replica
  // crash. The second storm is wider (severity 2.0 sweeps twice the keys),
  // and the crash overlaps it so cache accounting is exercised while fills
  // run against a degraded quorum. Everything clears before traffic ends.
  const auto at = [&](double frac) {
    return sim::SimTime::from_seconds(opt.traffic.to_seconds() * frac);
  };
  const int fleet = std::max(1, opt.kv_replicas);

  millib::FaultPlan plan;
  millib::FaultSpec storm1;
  storm1.kind = millib::FaultKind::kInvalidationStorm;
  storm1.start = at(0.15);
  storm1.duration = at(0.30) - at(0.15);
  storm1.severity = 1.0;
  plan.specs.push_back(storm1);

  millib::FaultSpec crash;
  crash.kind = millib::FaultKind::kReplicaCrash;
  crash.worker = static_cast<int>(sim::Rng::mix64(opt.chaos_seed) %
                                  static_cast<std::uint64_t>(fleet));
  crash.start = at(0.45);
  crash.duration = at(0.70) - at(0.45);
  plan.specs.push_back(crash);

  millib::FaultSpec storm2;
  storm2.kind = millib::FaultKind::kInvalidationStorm;
  storm2.start = at(0.55);
  storm2.duration = at(0.75) - at(0.55);
  storm2.severity = 2.0;
  plan.specs.push_back(storm2);
  return plan;
}

std::vector<ChaosRunResult> run_cache_chaos_matrix(
    const ChaosMatrixOptions& opt) {
  static constexpr lb::PolicyKind kPolicies[] = {
      lb::PolicyKind::kCurrentLoad, lb::PolicyKind::kRoundRobin,
      lb::PolicyKind::kTwoChoices, lb::PolicyKind::kSourceHash};
  static constexpr lb::MechanismKind kMechanisms[] = {
      lb::MechanismKind::kBlocking, lb::MechanismKind::kQueueing};

  return run_cells(opt, "cache-chaos", cache_matrix_plan(opt), kPolicies,
                   kMechanisms, server::DbTier::kKv, /*cache_tier=*/true);
}

}  // namespace ntier::experiment
