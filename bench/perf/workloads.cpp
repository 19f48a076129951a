#include "workloads.h"

#include <algorithm>
#include <cmath>

#include "control/overload.h"
#include "millib/fault_plan.h"

namespace perf {

using ntier::experiment::ExperimentConfig;
using ntier::lb::MechanismKind;
using ntier::lb::PolicyKind;
using ntier::sim::SimTime;

const std::vector<Workload>& workloads() {
  static const std::vector<Workload> kWorkloads = {
      {"paper_table1",
       "paper operating point: deepest event heap (70k think timers), deepest "
       "PS CPUs, figure samplers on"},
      {"kv_cache_storm",
       "read-heavy data tier: quorum reads, cache fills, coalescing, storms, "
       "prequal probing; no pdflush, no MySQL"},
      {"trace_day_kv",
       "open-loop day replay: writes + invalidation, trace generation in "
       "set-up, telemetry, detection, control and recovery loops"},
      {"scaleout_256",
       "balancer width: 16 balancers scan 256 workers per assign while "
       "Tomcat CPUs stay nearly idle"},
  };
  return kWorkloads;
}

bool known_workload(const std::string& name) {
  const auto& w = workloads();
  return std::any_of(w.begin(), w.end(),
                     [&](const Workload& x) { return x.name == name; });
}

namespace {

SimTime scaled(SimTime t, double f) {
  return SimTime::from_seconds(t.to_seconds() * f);
}

/// The 4A/4T/1M cluster every non-paper workload starts from: the
/// scaled(0.1) preset (7k clients, 700 ms think, ~10k req/s).
ExperimentConfig cluster(PolicyKind policy, MechanismKind mech,
                         bool tomcat_pdflush) {
  ExperimentConfig c = ExperimentConfig::scaled(0.1);
  c.policy = policy;
  c.mechanism = mech;
  c.tomcat_millibottlenecks = tomcat_pdflush;
  return c;
}

/// One invalidation storm overlapping each hot-shard stall: starts 100 ms
/// before the stall and outlasts it, as in the cache-stampede study.
ntier::millib::FaultPlan storm_plan(const ExperimentConfig& c) {
  ntier::millib::FaultPlan plan;
  const SimTime storm_len = c.injector.duration + SimTime::millis(700);
  for (SimTime start = c.injector.initial_offset - SimTime::millis(100);
       start + storm_len < c.duration; start += c.injector.period) {
    ntier::millib::FaultSpec storm;
    storm.kind = ntier::millib::FaultKind::kInvalidationStorm;
    storm.start = start;
    storm.duration = storm_len;
    storm.severity = 4.0;
    plan.specs.push_back(storm);
  }
  return plan;
}

ExperimentConfig paper_table1() { return ExperimentConfig::paper_scale(); }

ExperimentConfig kv_cache_storm() {
  ExperimentConfig c =
      cluster(PolicyKind::kPrequal, MechanismKind::kNonBlocking,
              /*tomcat_pdflush=*/false);
  c.duration = SimTime::seconds(90);
  c.tracing = false;
  c.apache.max_clients = 4000;
  c.tomcat.max_threads = 4000;
  c.balancer.endpoint_pool_size = 2000;
  c.db_tier = ntier::server::DbTier::kKv;
  c.kv.replicas = 5;
  c.workload.key_space = 10'000;
  c.workload.zipf_s = 1.1;
  c.workload.mix = ntier::workload::Mix::kBrowseOnly;
  c.workload.query_cache_hit = 0.0;
  c.workload.demand_scale = 2.0;
  c.kv_millibottlenecks = true;
  c.injector.period = SimTime::seconds(5);
  c.injector.duration = SimTime::millis(1010);
  c.injector.severity = 1.0;
  c.injector.initial_offset = SimTime::seconds(4);
  c.cache_tier = true;
  return c;
}

ExperimentConfig trace_day_kv() {
  ExperimentConfig c = cluster(PolicyKind::kTotalRequest,
                               MechanismKind::kBlocking,
                               /*tomcat_pdflush=*/true);
  c.duration = SimTime::seconds(150);
  c.tracing = false;
  c.db_tier = ntier::server::DbTier::kKv;
  c.cache_tier = true;
  c.workload.key_space = 10'000;
  c.workload.zipf_s = 0.99;
  c.replay_client_timeout = SimTime::seconds(8);
  c.overload = ntier::control::make_overload(
      ntier::control::OverloadMode::kFull, SimTime::seconds(1));
  c.telemetry.enabled = true;
  c.online_detect = true;
  c.recovery.enabled = true;
  return c;
}

ExperimentConfig scaleout_256() {
  ExperimentConfig c = cluster(PolicyKind::kCurrentLoad,
                               MechanismKind::kNonBlocking,
                               /*tomcat_pdflush=*/true);
  c.duration = SimTime::seconds(25);
  c.tracing = false;
  c.num_apaches = 16;
  c.num_tomcats = 256;
  c.num_mysql = 4;
  c.pdflush_stagger = SimTime::from_millis(4400.0 / 256);
  c.num_clients = 28'000;
  return c;
}

}  // namespace

ExperimentConfig make_config(const std::string& name, std::uint64_t seed,
                             double duration_scale) {
  ExperimentConfig c;
  if (name == "paper_table1") c = paper_table1();
  else if (name == "kv_cache_storm") c = kv_cache_storm();
  else if (name == "trace_day_kv") c = trace_day_kv();
  else if (name == "scaleout_256") c = scaleout_256();
  c.label = name;
  c.seed = seed;
  c.duration = scaled(c.duration, duration_scale);
  c.warmup = scaled(c.warmup, duration_scale);
  // Built after the horizon is final: the storms are placed inside it.
  if (name == "kv_cache_storm") c.fault_plan = storm_plan(c);
  return c;
}

std::optional<ntier::workload::TraceGenSpec> trace_spec(
    const std::string& name, std::uint64_t seed, double duration_scale) {
  if (name != "trace_day_kv") return std::nullopt;
  // Calibrated to the 4A/4T cluster (capacity ~29k req/s): the diurnal
  // peak times the flash crowd reaches ~19k req/s, loud but below capacity.
  ntier::workload::TraceGenSpec spec;
  spec.seed = seed;
  spec.duration_s =
      scaled(trace_day_kv().duration, duration_scale).to_seconds();
  spec.base_rps = 9'000;
  spec.diurnal_amplitude = 0.35;
  spec.diurnal_period_s = 0;
  spec.flash_at_s = 0.55 * spec.duration_s;
  spec.flash_duration_s = 0.15 * spec.duration_s;
  spec.flash_multiplier = 1.6;
  spec.session_mean = 5;
  spec.think_mean_s = 0.5;
  spec.abandon_p = 0.05;
  return spec;
}

}  // namespace perf
