#pragma once

#include <cstddef>
#include <cstdint>
#include <ostream>
#include <string>
#include <vector>

#include "experiment/experiment.h"

namespace ntier::experiment {

/// Every scalar a run reports, one X(name, type, unit) line each, in export
/// order. RunSummary members, AggregateSummary statistics, kRunMetrics and
/// every JSON/CSV/table export are generated from this list; adding a
/// counter takes one line here plus the line in summarize() that sets it.
#define NTIER_RUN_METRICS(X)                                                  \
  X(offered_rps, double, "req/s")                                             \
  X(duration_s, double, "s")                                                  \
  X(completed, std::int64_t, "req")                                           \
  X(dropped, std::uint64_t, "req")                                            \
  X(balancer_errors, std::uint64_t, "req")                                    \
  X(connection_drops, std::uint64_t, "req")                                   \
  /* Requests the client population issued (the trace replayer's under        \
     replay) and those still unsettled at the horizon. */                     \
  X(issued, std::uint64_t, "req")                                             \
  X(in_flight, std::uint64_t, "req")                                          \
  /* Trace replay: open_loop is 1 when a TraceReplayer drove the run. */      \
  X(open_loop, bool, "")                                                      \
  X(trace_arrivals, std::uint64_t, "req")                                     \
  X(replay_abandoned, std::uint64_t, "req")                                   \
  /* Overload control: goodput counts completions that met their deadline     \
     per measured second; wasted work is backend demand shed unexecuted. */   \
  X(goodput_rps, double, "req/s")                                             \
  X(completed_within_deadline, std::int64_t, "req")                           \
  X(missed_deadline, std::int64_t, "req")                                     \
  X(admission_sheds, std::uint64_t, "req")                                    \
  X(brownout_sheds, std::uint64_t, "req")                                     \
  X(deadline_sheds, std::uint64_t, "req")                                     \
  X(sojourn_sheds, std::uint64_t, "req")                                      \
  X(total_sheds, std::uint64_t, "req")                                        \
  X(wasted_work_avoided_ms, double, "ms")                                     \
  X(shed_retries, std::uint64_t, "req")                                       \
  /* Front-end retries (the storm signal) and abandoned attempts. */          \
  X(first_attempts, std::uint64_t, "req")                                     \
  X(retries, std::uint64_t, "req")                                            \
  X(retry_ratio, double, "")                                                  \
  X(retry_successes, std::uint64_t, "req")                                    \
  X(attempts_abandoned, std::uint64_t, "req")                                 \
  /* Resilience: breaker trips and health probes over the Apache tier. */     \
  X(breaker_trips, std::uint64_t, "n")                                        \
  X(health_probes_sent, std::uint64_t, "n")                                   \
  X(health_probe_timeouts, std::uint64_t, "n")                                \
  /* Load probing over the Apache and DB-router pools (zero without a         \
     probe-aware policy); staleness is the use-weighted mean age at use. */   \
  X(probes_sent, std::uint64_t, "n")                                          \
  X(probe_replies, std::uint64_t, "n")                                        \
  X(probe_timeouts, std::uint64_t, "n")                                       \
  X(probes_piggybacked, std::uint64_t, "n")                                   \
  X(probe_picks, std::uint64_t, "n")                                          \
  X(probe_tiebreaks, std::uint64_t, "n")                                      \
  X(probe_fallbacks, std::uint64_t, "n")                                      \
  X(probe_mean_staleness_ms, double, "ms")                                    \
  /* Recovery orchestration (zero when --recovery is off). */                 \
  X(recovery_ticks, std::uint64_t, "n")                                       \
  X(recovery_episode_ticks, std::uint64_t, "n")                               \
  X(recovery_episodes, std::uint64_t, "n")                                    \
  X(recovery_degraded_ticks, std::uint64_t, "n")                              \
  X(recovery_retry_suppressions, std::uint64_t, "n")                          \
  X(recovery_hard_sheds, std::uint64_t, "n")                                  \
  X(recovery_refill_gates, std::uint64_t, "n")                                \
  X(recovery_breaker_resets, std::uint64_t, "n")                              \
  X(recovery_interventions, std::uint64_t, "n")                               \
  X(retries_suppressed, std::uint64_t, "req")                                 \
  X(recovery_sheds, std::uint64_t, "req")                                     \
  X(cache_gated_fills, std::uint64_t, "ops")                                  \
  /* Gray-fault ground truth (zero unless a gray fault was scheduled). */     \
  X(gray_inflated_ops, std::uint64_t, "ops")                                  \
  X(kv_slow_ops, std::uint64_t, "ops")                                        \
  X(mean_rt_ms, double, "ms")                                                 \
  X(p50_ms, double, "ms")                                                     \
  X(p99_ms, double, "ms")                                                     \
  X(p999_ms, double, "ms")                                                    \
  X(vlrt_count, std::int64_t, "req")                                          \
  X(vlrt_fraction, double, "")                                                \
  X(normal_fraction, double, "")                                              \
  /* Queue peaks need tracing; zero otherwise. */                             \
  X(apache_queue_peak, double, "req")                                         \
  X(tomcat_queue_peak, double, "req")                                         \
  X(mysql_queue_peak, double, "req")                                          \
  X(kv_queue_peak, double, "req")                                             \
  /* DB routers: failed and routed queries (quorum ops in KV mode). */        \
  X(db_router_errors, std::uint64_t, "ops")                                   \
  X(db_queries_routed, std::uint64_t, "ops")                                  \
  /* KV data tier (zero with the MySQL tier). kv_degraded_ms is quorum-op     \
     time spent while the op's shard was below full replication. */           \
  X(kv_quorum_failed, std::uint64_t, "ops")                                   \
  X(kv_quorum_reads, std::uint64_t, "ops")                                    \
  X(kv_quorum_writes, std::uint64_t, "ops")                                   \
  X(kv_hints_created, std::uint64_t, "ops")                                   \
  X(kv_hints_pending, std::uint64_t, "ops")                                   \
  X(kv_handoff_dropped, std::uint64_t, "ops")                                 \
  X(kv_migration_shed, std::uint64_t, "ops")                                  \
  X(kv_hints_replayed, std::uint64_t, "ops")                                  \
  X(kv_read_repairs, std::uint64_t, "ops")                                    \
  X(kv_degraded_ms, double, "ms")                                             \
  X(kv_mean_quorum_wait_ms, double, "ms")                                     \
  /* Cache tier (zero without one). Coalesced fills are misses that joined    \
     an in-flight fill; dropped invalidations overflowed the queue. */        \
  X(cache_hits, std::uint64_t, "ops")                                         \
  X(cache_misses, std::uint64_t, "ops")                                       \
  X(cache_invalidations, std::uint64_t, "ops")                                \
  X(cache_coalesced_fills, std::uint64_t, "ops")                              \
  X(cache_invalidations_dropped, std::uint64_t, "ops")                        \
  X(cache_invalidations_delivered, std::uint64_t, "ops")                      \
  X(cache_evictions, std::uint64_t, "ops")                                    \
  X(cache_expirations, std::uint64_t, "ops")                                  \
  X(cache_storms, std::uint64_t, "n")                                         \
  X(cache_hit_ratio, double, "")                                              \
  /* Online detection and tail sampling (zero when --detect is off). */       \
  X(online_episodes, std::uint64_t, "n")                                      \
  X(online_matched, std::uint64_t, "n")                                       \
  X(online_truth_episodes, std::uint64_t, "n")                                \
  X(online_false_positives, std::uint64_t, "n")                               \
  X(online_median_detection_ms, double, "ms")                                 \
  X(online_episode_vlrts, std::uint64_t, "req")                               \
  X(trace_events_seen, std::uint64_t, "n")                                    \
  X(trace_events_kept, std::uint64_t, "n")                                    \
  X(trace_kept_fraction, double, "")

/// Flat, serialisable digest of one run — what a CI job or notebook wants
/// to archive per experiment without holding the Experiment alive.
struct RunSummary {
  std::string label;
  std::string policy;
  std::string mechanism;

#define NTIER_DECLARE_METRIC(name, type, unit) type name{};
  NTIER_RUN_METRICS(NTIER_DECLARE_METRIC)
#undef NTIER_DECLARE_METRIC

  std::vector<double> apache_mean_cpu;
  std::vector<double> tomcat_mean_cpu;
  std::vector<double> mysql_mean_cpu;
  /// Queries each MySQL replica served (filled with or without tracing).
  std::vector<std::uint64_t> mysql_queries;
  std::vector<double> kv_mean_cpu;
  std::vector<double> cache_mean_cpu;

  /// Serialise as a single JSON object (stable field order, no deps).
  void to_json(std::ostream& os) const;
  std::string to_json_string() const;
};

struct MetricStats;
struct AggregateSummary;

/// One NTIER_RUN_METRICS entry: its name and unit, how to read it from a
/// RunSummary, and where a sweep keeps its cross-run statistics.
struct RunMetric {
  const char* name;
  const char* unit;
  double (*get)(const RunSummary&);
  MetricStats AggregateSummary::*stats;
};

#define NTIER_COUNT_METRIC(name, type, unit) +1
inline constexpr std::size_t kNumRunMetrics =
    0 NTIER_RUN_METRICS(NTIER_COUNT_METRIC);
#undef NTIER_COUNT_METRIC

/// The whole list, in export order.
extern const RunMetric kRunMetrics[kNumRunMetrics];

/// Collect the digest from a finished run. Queue peaks and CPU means are
/// only available when the experiment ran with tracing enabled. The only
/// reader of component counters outside the safety checks: every report is
/// a view of what this returns.
RunSummary summarize(Experiment& e);

/// The recovery counters as one report line: "E episodes over T/N ticks
/// (D degraded); interventions: ...".
std::string recovery_line(const RunSummary& s);

}  // namespace ntier::experiment
