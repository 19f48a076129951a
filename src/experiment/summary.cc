#include "experiment/summary.h"

#include <iomanip>
#include <sstream>

#include "experiment/report.h"
#include "lb/probe_policy.h"
#include "experiment/sweep.h"

namespace ntier::experiment {

RunSummary summarize(Experiment& e) {
  RunSummary s;
  const auto& cfg = e.config();
  s.label = cfg.label;
  s.policy = lb::to_string(cfg.policy);
  s.mechanism = lb::to_string(cfg.mechanism);
  s.offered_rps = cfg.offered_rps();
  s.duration_s = cfg.duration.to_seconds();

  const auto& log = e.log();
  s.completed = log.completed();
  s.dropped = e.clients().dropped();
  s.balancer_errors = e.clients().failed();
  s.connection_drops = e.clients().connection_drops();
  s.issued = e.clients().issued();
  s.in_flight = e.clients().in_flight();
  if (const auto* rp = e.replayer()) {
    // Open-loop runs: the client-side counters live on the replayer (the
    // closed-loop population is idled by normalized() and issues nothing).
    s.open_loop = true;
    s.trace_arrivals = cfg.replay_trace->size();
    s.dropped = rp->dropped();
    s.balancer_errors = rp->failed();
    s.connection_drops = rp->connection_drops();
    s.replay_abandoned = rp->abandoned();
    s.issued = rp->issued();
    s.in_flight = rp->in_flight();
  }
  s.completed_within_deadline = log.completed_within_deadline();
  s.missed_deadline = log.missed_deadline();
  const double measured_s = (cfg.duration - cfg.warmup).to_seconds();
  s.goodput_rps = measured_s > 0
                      ? static_cast<double>(s.completed_within_deadline) /
                            measured_s
                      : 0.0;
  control::OverloadStats ostats;
  for (int i = 0; i < e.num_apaches(); ++i) ostats += e.apache(i).overload_stats();
  for (int i = 0; i < e.num_tomcats(); ++i) {
    ostats += e.tomcat(i).overload_stats();
    const server::DbRouter& router = e.db_router(i);
    ostats += router.overload_stats();
    s.db_router_errors += router.errors();
    s.db_queries_routed += router.queries_routed();
  }
  for (int i = 0; i < e.num_mysql(); ++i)
    s.mysql_queries.push_back(e.mysql(i).queries_served());
  s.admission_sheds = ostats.admission_sheds;
  s.brownout_sheds = ostats.brownout_sheds;
  s.deadline_sheds = ostats.deadline_sheds;
  s.sojourn_sheds = ostats.sojourn_sheds;
  s.total_sheds = s.admission_sheds + s.brownout_sheds + s.deadline_sheds +
                  s.sojourn_sheds;
  s.wasted_work_avoided_ms = ostats.wasted_work_avoided_ms;
  s.shed_retries = e.clients().shed_retries();
  s.recovery_sheds = ostats.recovery_sheds;
  for (int i = 0; i < e.num_apaches(); ++i) {
    const server::ApacheServer& apache = e.apache(i);
    s.first_attempts += apache.first_attempts();
    s.retries += apache.retries();
    s.retry_successes += apache.retry_successes();
    s.attempts_abandoned += apache.attempts_abandoned();
    s.retries_suppressed += apache.retries_suppressed();
  }
  // Breakers, health probing and load probing over every balanced hop: each
  // Apache's route to the Tomcats and each DB router's route to the replicas.
  std::uint64_t probe_uses = 0;
  double staleness_sum = 0.0;  // per-pool mean staleness x uses
  for (server::Route* route : e.routes()) {
    lb::LoadBalancer& lb = route->balancer();
    s.breaker_trips += lb.breaker_trips();
    if (const auto* prober = route->prober()) {
      s.health_probes_sent += prober->probes_sent();
      s.health_probe_timeouts += prober->probes_timed_out();
    }
    if (const auto* pool = route->probe_pool()) {
      s.probes_sent += pool->probes_sent();
      s.probe_replies += pool->replies();
      s.probe_timeouts += pool->timeouts();
      s.probes_piggybacked += pool->piggybacked();
      staleness_sum += pool->mean_staleness_at_use_ms() *
                       static_cast<double>(pool->uses());
      probe_uses += pool->uses();
    }
    if (const auto* aware =
            dynamic_cast<const lb::ProbeAwarePolicy*>(&lb.policy())) {
      s.probe_picks += aware->probe_picks();
      s.probe_tiebreaks += aware->tiebreak_picks();
      s.probe_fallbacks += aware->fallback_picks();
    }
  }
  s.probe_mean_staleness_ms =
      probe_uses ? staleness_sum / static_cast<double>(probe_uses) : 0.0;
  s.retry_ratio = s.first_attempts > 0
                      ? static_cast<double>(s.retries) /
                            static_cast<double>(s.first_attempts)
                      : 0.0;
  if (const auto* rec = e.recovery()) {
    const auto& rs = rec->stats();
    s.recovery_ticks = rs.ticks;
    s.recovery_episode_ticks = rs.episode_ticks;
    s.recovery_episodes = rs.episodes;
    s.recovery_degraded_ticks = rs.degraded_ticks;
    s.recovery_retry_suppressions = rs.retry_suppressions;
    s.recovery_hard_sheds = rs.hard_sheds;
    s.recovery_refill_gates = rs.refill_gates;
    s.recovery_breaker_resets = rs.breaker_resets;
    s.recovery_interventions = rs.retry_suppressions + rs.hard_sheds +
                               rs.refill_gates;
  }
  for (int i = 0; i < e.num_tomcats(); ++i)
    s.gray_inflated_ops += e.tomcat(i).gray_inflated();
  for (int i = 0; i < e.num_kv_replicas(); ++i)
    s.kv_slow_ops += e.kv_replica(i).slow_ops();
  s.mean_rt_ms = log.mean_response_ms();
  s.p50_ms = log.percentile_ms(50);
  s.p99_ms = log.percentile_ms(99);
  s.p999_ms = log.percentile_ms(99.9);
  s.vlrt_count = log.vlrt_count();
  s.vlrt_fraction = log.vlrt_fraction();
  s.normal_fraction = log.normal_fraction();

  if (const auto* kv = e.kv_tier()) {
    const auto& ks = kv->stats();
    s.kv_quorum_failed = ks.quorum_failed_reads + ks.quorum_failed_writes;
    s.kv_quorum_reads = ks.quorum_reads;
    s.kv_quorum_writes = ks.quorum_writes;
    s.kv_hints_created = ks.hints_created;
    s.kv_hints_pending = ks.hints_pending();
    s.kv_handoff_dropped = ks.handoff_dropped;
    s.kv_migration_shed = ks.migration_shed;
    s.kv_hints_replayed = ks.hints_replayed;
    s.kv_read_repairs = ks.read_repairs;
    s.kv_degraded_ms = ks.degraded_wait_ms;
    s.kv_mean_quorum_wait_ms = ks.mean_quorum_wait_ms();
  }

  if (const auto* cache = e.cache_tier()) {
    const auto& cs = cache->stats();
    s.cache_hits = cs.hits;
    s.cache_misses = cs.misses;
    s.cache_invalidations = cs.invalidations_sent;
    s.cache_coalesced_fills = cs.coalesced_fills;
    s.cache_invalidations_dropped = cs.invalidations_dropped;
    s.cache_invalidations_delivered = cs.invalidations_delivered;
    s.cache_evictions = cs.evictions;
    s.cache_expirations = cs.expirations;
    s.cache_storms = cs.storms;
    s.cache_hit_ratio = cs.hit_ratio();
    s.cache_gated_fills = cs.gated_fills;
  }

  if (const auto* det = e.online_detector()) {
    const auto score =
        millib::OnlineDetector::score(det->episodes(), e.tomcat_truth_intervals());
    s.online_episodes = det->episodes().size();
    s.online_matched = score.matched;
    s.online_truth_episodes = score.truth;
    s.online_false_positives = score.false_positives;
    s.online_median_detection_ms = score.median_latency_ms();
    for (const auto& ep : det->episodes()) s.online_episode_vlrts += ep.vlrts;
  }
  if (const auto* tr = e.trace(); tr && tr->tail_enabled()) {
    s.trace_events_seen = tr->tail_seen();
    s.trace_events_kept = tr->tail_kept();
    s.trace_kept_fraction = tr->tail_kept_fraction();
  }

  if (cfg.tracing) {
    s.apache_queue_peak = max_of(e.apache_tier_queue());
    s.tomcat_queue_peak = max_of(e.tomcat_tier_queue());
    s.mysql_queue_peak = max_of(e.mysql_tier_queue());
    s.kv_queue_peak = max_of(e.kv_tier_queue());
    const auto mean_cpus = [&e](obs::Tier tier, int nodes) {
      std::vector<double> out;
      for (int i = 0; i < nodes; ++i)
        out.push_back(e.mean_cpu(e.cpu_series(tier, i)));
      return out;
    };
    s.apache_mean_cpu = mean_cpus(obs::Tier::kApache, e.num_apaches());
    s.tomcat_mean_cpu = mean_cpus(obs::Tier::kTomcat, e.num_tomcats());
    s.mysql_mean_cpu = mean_cpus(obs::Tier::kMysql, e.num_mysql());
    s.kv_mean_cpu = mean_cpus(obs::Tier::kKv, e.num_kv_replicas());
    s.cache_mean_cpu = mean_cpus(obs::Tier::kCache, e.num_cache_nodes());
  }
  return s;
}

std::string recovery_line(const RunSummary& s) {
  std::ostringstream os;
  os << s.recovery_episodes << " episodes over " << s.recovery_episode_ticks
     << "/" << s.recovery_ticks << " ticks (" << s.recovery_degraded_ticks
     << " degraded); interventions: " << s.recovery_retry_suppressions
     << " retry-suppress, " << s.recovery_hard_sheds << " hard-shed, "
     << s.recovery_refill_gates << " refill-gate, "
     << s.recovery_breaker_resets << " breakers reset";
  return os.str();
}

namespace {

template <typename T>
void array(std::ostream& os, const char* name, const std::vector<T>& v,
           bool comma = true) {
  os << "  \"" << name << "\": [";
  for (std::size_t i = 0; i < v.size(); ++i) {
    if (i) os << ", ";
    os << v[i];
  }
  os << ']';
  if (comma) os << ',';
  os << '\n';
}

}  // namespace

const RunMetric kRunMetrics[kNumRunMetrics] = {
#define NTIER_DESCRIBE_METRIC(name, type, unit)                              \
  {#name, unit,                                                              \
   [](const RunSummary& r) { return static_cast<double>(r.name); },          \
   &AggregateSummary::name},
    NTIER_RUN_METRICS(NTIER_DESCRIBE_METRIC)
#undef NTIER_DESCRIBE_METRIC
};

void RunSummary::to_json(std::ostream& os) const {
  os << std::setprecision(10);
  os << "{\n";
  os << "  \"label\": \"" << label << "\",\n";
  os << "  \"policy\": \"" << policy << "\",\n";
  os << "  \"mechanism\": \"" << mechanism << "\",\n";
  for (const RunMetric& m : kRunMetrics)
    os << "  \"" << m.name << "\": " << m.get(*this) << ",\n";
  array(os, "apache_mean_cpu", apache_mean_cpu);
  array(os, "tomcat_mean_cpu", tomcat_mean_cpu);
  array(os, "mysql_mean_cpu", mysql_mean_cpu);
  array(os, "mysql_queries", mysql_queries);
  array(os, "kv_mean_cpu", kv_mean_cpu);
  array(os, "cache_mean_cpu", cache_mean_cpu, /*comma=*/false);
  os << "}\n";
}

std::string RunSummary::to_json_string() const {
  std::ostringstream os;
  to_json(os);
  return os.str();
}

}  // namespace ntier::experiment
