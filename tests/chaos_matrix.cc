#include "chaos_matrix.h"

#include <span>
#include <string>
#include <utility>

#include "sim/rng.h"

namespace ntier::experiment {

namespace {

constexpr int kTomcats = 3;
/// KV fleet of the KV and cache cells; quorum stays the N=3, R=W=2 default.
constexpr int kKvReplicas = 5;

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
      c.num_apaches = 2;
      c.num_tomcats = kTomcats;
      c.num_clients = 200;
      c.think_mean = sim::SimTime::millis(200);
      c.warmup = sim::SimTime::millis(500);
      c.policy = policy;
      c.mechanism = mechanism;
      c.db_tier = db_tier;
      if (db_tier == server::DbTier::kKv) c.kv.replicas = kKvReplicas;
      c.cache_tier = cache_tier;  // at the default two cache nodes
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
  return millib::FaultPlan::randomized(opt.chaos_seed, fc, kTomcats);
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
  const int fleet = kTomcats;
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
  const int fleet = kKvReplicas;
  const int r1 = static_cast<int>(sim::Rng::mix64(opt.chaos_seed) %
                                  static_cast<std::uint64_t>(fleet));
  const int r2 = (r1 + 1 + static_cast<int>(
                               sim::Rng::mix64(opt.chaos_seed + 1) %
                               static_cast<std::uint64_t>(fleet - 1))) %
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
  const int fleet = kKvReplicas;

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
