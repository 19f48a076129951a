#include "experiment/metastable.h"

#include <sstream>

#include "experiment/experiment.h"

namespace ntier::experiment {

namespace {

/// ExperimentConfig::scaled factor (offered load is scale-invariant).
constexpr double kScale = 0.05;
/// Gray severity: 0.9 => 10x service-time inflation on the targets.
constexpr double kTriggerSeverity = 0.9;
/// Invalidation-storm width (cache kind only): multiplier on the sweep's
/// hottest-rank count, CacheTier's severity semantics — NOT a fraction.
constexpr double kStormSeverity = 4.0;

}  // namespace

std::string to_string(MetastableKind k) {
  switch (k) {
    case MetastableKind::kRetryStorm: return "retry_storm";
    case MetastableKind::kCacheStampede: return "cache_stampede";
    case MetastableKind::kPoolExhaustion: return "pool_exhaustion";
  }
  return "?";
}

std::string MetastableOptions::label() const {
  std::ostringstream os;
  os << to_string(kind) << "/" << (vulnerable ? "vulnerable" : "hardened")
     << "/recovery-" << (recovery ? "on" : "off");
  return os.str();
}

millib::FaultSpec metastable_trigger(const MetastableOptions& opt) {
  millib::FaultSpec spec;
  spec.start = opt.trigger_start;
  spec.duration = opt.trigger_duration;
  switch (opt.kind) {
    case MetastableKind::kRetryStorm:
    case MetastableKind::kPoolExhaustion:
      // Gray Tomcats: data path inflated 1/(1-severity)x while probes,
      // breaker health and piggybacked load all keep reporting healthy.
      // This spec targets worker 0; metastable_config replicates it across
      // the tier so the trigger saturates the fleet, not one dodgeable node.
      spec.kind = millib::FaultKind::kGrayDataPath;
      spec.worker = 0;
      spec.severity = kTriggerSeverity;
      break;
    case MetastableKind::kCacheStampede:
      // Write burst sweeping the hot key set out of every cache node.
      // Severity here is CacheTier's hot-rank multiplier (4.0 => the sweep
      // covers 4x the base hot-rank count), not a gray fraction.
      spec.kind = millib::FaultKind::kInvalidationStorm;
      spec.worker = -1;
      spec.severity = kStormSeverity;
      break;
  }
  return spec;
}

ExperimentConfig metastable_config(const MetastableOptions& opt) {
  ExperimentConfig c = ExperimentConfig::scaled(kScale);
  c.label = opt.label();
  c.seed = opt.seed;
  c.duration = opt.duration;
  c.warmup = opt.warmup;
  // The scheduled trigger is the run's only disturbance: organic
  // millibottlenecks off, so the pre-trigger baseline is crisp and every
  // post-clear degraded window is attributable to the sustaining loop.
  c.tomcat_millibottlenecks = false;
  millib::FaultSpec trigger = metastable_trigger(opt);
  c.fault_plan = millib::FaultPlan::single(trigger);
  if (trigger.kind == millib::FaultKind::kGrayDataPath) {
    // Fleet-wide ignition: the same gray window on every Tomcat.
    for (int w = 1; w < c.num_tomcats; ++w) {
      trigger.worker = w;
      c.fault_plan.specs.push_back(trigger);
    }
  }
  // mod_jk's Busy->Error ladder parks a worker for error_recovery (60 s —
  // longer than these runs) after a burst of connector overflows. That is a
  // different failure mode with its own bench; here it would mask the loop
  // under test, so the ladder is effectively disabled.
  c.balancer.failures_to_error = 1'000'000;

  switch (opt.kind) {
    case MetastableKind::kRetryStorm:
      // Baseline sits comfortably below saturation (zero organic retries,
      // ~2.8 ms mean), yet the closed-loop ceiling of the storm — ~19k
      // attempts/s of 6x-amplified abandoned work — is past tier capacity,
      // so the basin, once entered, feeds itself. (At 2.0 the baseline
      // itself is unstable; at <~1.2 the storm cannot outrun capacity.)
      c.workload.demand_scale = 1.6;
      c.apache.max_clients = 4'000;
      c.mechanism = lb::MechanismKind::kNonBlocking;
      c.balancer.endpoint_pool_size = 2'000;
      c.apache.retry.enabled = true;
      // Both twins are equally impatient: an attempt not answered in 120 ms
      // is abandoned (the backend keeps burning it) and retried. 120 ms
      // clears the healthy-system tail (~2.8 ms mean), so the baseline is
      // stable — only a trigger that pins latency past it can ignite the
      // loop. The twins differ only in how much amplification the retry
      // layer then permits.
      c.apache.retry.attempt_timeout = sim::SimTime::millis(120);
      c.apache.retry.request_timeout = sim::SimTime::seconds(10);
      if (opt.vulnerable) {
        // The storm: every abandonment re-arrives almost immediately, with
        // a budget too generous to ever run dry. Up to 6 attempts/request
        // => ~6x wasted-work amplification whenever latency > 120 ms, which
        // keeps latency > 120 ms — the sustaining loop.
        c.apache.retry.max_attempts = 6;
        c.apache.retry.base_backoff = sim::SimTime::millis(1);
        c.apache.retry.max_backoff = sim::SimTime::millis(4);
        c.apache.retry.budget_ratio = 10.0;
        c.apache.retry.budget_burst = 100'000.0;
      } else {
        // Hardened: one budgeted retry with real backoff, so amplified
        // attempt load stays below tier capacity and the queues drain.
        c.apache.retry.max_attempts = 2;
        c.apache.retry.budget_ratio = 0.1;
        c.apache.retry.budget_burst = 10.0;
      }
      break;

    case MetastableKind::kCacheStampede:
      c.db_tier = server::DbTier::kKv;
      c.cache_tier = true;
      // A stiffer client loop (4x the population at 4x the think time —
      // identical offered load): with the default population, latency growth
      // throttles arrivals so hard that the closed loop drains any basin.
      // More, slower clients keep the post-storm miss load near the offered
      // rate even at 100x-baseline latency, which is what lets the
      // stampede's duplicate fills sustain themselves.
      c.num_clients *= 4;
      c.think_mean =
          sim::SimTime::from_seconds(c.think_mean.to_seconds() * 4.0);
      // A minimal quorum fleet: little enough KV headroom that the
      // stampede's duplicate fills, not the trigger, are what keeps fill
      // latency above the TTL.
      c.kv.replicas = 3;
      // Browse-only Zipf traffic against the cache tier (the stampede
      // bench's provisioning): the upstream tiers are sized out of the way
      // so the basin, if any, lives in the cache<->KV loop.
      c.apache.max_clients = 4'000;
      c.tomcat.max_threads = 4'000;
      c.balancer.endpoint_pool_size = 2'000;
      c.workload.key_space = 10'000;
      // Hot enough that ~90% of references land on keys re-referenced
      // within the short TTL: the healthy state is hit-dominated (KV well
      // under capacity) while the all-miss state is past it — the
      // bistability the stampede needs.
      c.workload.zipf_s = 1.4;
      c.workload.mix = workload::Mix::kBrowseOnly;
      c.workload.query_cache_hit = 0.0;
      // Below ~2.3 the storm's all-miss load stays inside KV capacity and
      // the basin drains; at 3.0 the hit-dominated baseline itself ignites
      // without a trigger. 2.4 sits in the bistable band.
      c.workload.demand_scale = 2.4;
      if (opt.vulnerable) {
        // Every miss stampedes the KV tier independently, and entries
        // expire before the slowed fills can rebuild the working set.
        c.cache.coalesce = false;
        c.cache.ttl = sim::SimTime::millis(150);
      } else {
        c.cache.coalesce = true;
        c.cache.ttl = sim::SimTime::seconds(10);
      }
      break;

    case MetastableKind::kPoolExhaustion:
      // The bulkhead scenario: the retry layer is identically impatient and
      // effectively unbudgeted in BOTH twins — the endpoint pool is the
      // only variable. Same operating point as the retry storm.
      c.workload.demand_scale = 1.6;
      c.apache.max_clients = 4'000;
      c.mechanism = lb::MechanismKind::kBlocking;
      c.apache.retry.enabled = true;
      c.apache.retry.attempt_timeout = sim::SimTime::millis(120);
      c.apache.retry.request_timeout = sim::SimTime::seconds(10);
      c.apache.retry.max_attempts = 4;
      c.apache.retry.base_backoff = sim::SimTime::millis(1);
      c.apache.retry.max_backoff = sim::SimTime::millis(4);
      c.apache.retry.budget_ratio = 10.0;
      c.apache.retry.budget_burst = 100'000.0;
      if (opt.vulnerable) {
        // No bulkhead: a pool this large never exerts backpressure, so
        // abandoned-but-still-running attempts pile onto the backends
        // without bound and the standing queue keeps every attempt slower
        // than the 120 ms abandon clock.
        c.balancer.endpoint_pool_size = 4'000;
      } else {
        // Tight bulkhead: <= 24 in-flight per Apache x Tomcat caps backend
        // queueing (~26 ms at baseline demand) well below the abandon
        // clock, so responses win the race and the loop never closes;
        // excess arrivals wait at the acquirer instead of multiplying.
        c.balancer.endpoint_pool_size = 24;
      }
      break;
  }

  if (opt.recovery) {
    c.recovery.enabled = true;
    // Judge against the pre-trigger baseline at the default 100 ms cadence;
    // the experiment aligns recovery warmup with c.warmup on build.
  }
  return c;
}

MetastableResult run_metastable(const MetastableOptions& opt) {
  MetastableResult res;
  res.label = opt.label();
  res.trigger = metastable_trigger(opt);
  res.recovery_enabled = opt.recovery;

  Experiment e(metastable_config(opt));
  e.run();
  res.summary = summarize(e);
  res.report = measure_recovery(e.log().response_time_series(), opt.warmup,
                                res.trigger.start, res.trigger.end(),
                                opt.duration);
  return res;
}

}  // namespace ntier::experiment
