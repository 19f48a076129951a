#pragma once

#include <cstdint>
#include <string>

#include "cache/config.h"
#include "control/overload.h"
#include "kv/config.h"
#include "lb/endpoint.h"
#include "lb/load_balancer.h"
#include "lb/policy.h"
#include "metrics/telemetry.h"
#include "millib/fault_plan.h"
#include "millib/injector.h"
#include "millib/online_detector.h"
#include "net/retransmit.h"
#include "os/node.h"
#include "recovery/orchestrator.h"
#include "server/apache_server.h"
#include "server/db_router.h"
#include "server/mysql_server.h"
#include "server/tomcat_server.h"
#include "sim/time.h"
#include "workload/client.h"
#include "workload/rubbos.h"
#include "workload/trace.h"

#include <memory>

namespace ntier::experiment {

/// What creates the transient stalls on the Tomcat nodes. The paper's
/// organic cause is pdflush; the others reproduce §III-A's list of causes
/// (JVM garbage collection, DVFS, VM consolidation) via injectors.
enum class StallSource {
  kPdflush,
  kGcPause,
  kDvfs,
  kVmConsolidation,
};

std::string to_string(StallSource s);

using sim::kMetricWindow;

/// Full description of one run: topology, workload, policy/mechanism combo,
/// and the millibottleneck environment. Presets reproduce the paper's
/// configurations.
struct ExperimentConfig {
  std::string label = "experiment";
  std::uint64_t seed = 42;

  // -- topology ---------------------------------------------------------------
  int num_apaches = 4;
  int num_tomcats = 4;
  int num_mysql = 1;
  /// Which data tier backs the servlets' DB round trips. kMysql is the
  /// paper's single-primary setup; kKv replaces it with the replicated
  /// sharded KV tier (src/kv) routed by request key.
  server::DbTier db_tier = server::DbTier::kMysql;
  /// KV topology and quorum parameters (kKv mode only).
  kv::KvConfig kv;
  /// pdflush + injected stalls on the KV replica nodes — the data tier's
  /// own millibottleneck source. Correlated injector stalls are placed on
  /// enough members of the hot key's shard (n - r + 1 of them) that the
  /// quorum cannot mask the episode.
  bool kv_millibottlenecks = false;
  /// Look-aside cache tier between the Tomcats and the KV tier (kKv mode
  /// only): per-node LRU+TTL stores, invalidate-on-write broadcast, and
  /// optional single-flight fill coalescing (src/cache).
  bool cache_tier = false;
  /// Cache topology and behaviour (cache_tier mode only).
  cache::CacheConfig cache;

  // -- workload ---------------------------------------------------------------
  workload::WorkloadParams workload;
  int num_clients = 7'000;
  sim::SimTime think_mean = sim::SimTime::millis(700);
  sim::SimTime duration = sim::SimTime::seconds(60);
  sim::SimTime warmup = sim::SimTime::seconds(3);
  net::RetransmitSchedule retransmit;
  /// Open-loop trace replay: when set, a TraceReplayer drives the recorded
  /// arrivals against the front-ends and the closed-loop population is idled
  /// (normalized() leaves one client thinking past the horizon, so chaos
  /// conservation checks still hold). Shared so sweep replicas reuse one
  /// loaded trace instead of copying it per cell.
  std::shared_ptr<const workload::ArrivalTrace> replay_trace;
  /// Client-side patience during replay: unanswered requests older than this
  /// are abandoned and logged as dropped (zero = wait forever).
  sim::SimTime replay_client_timeout;

  // -- policy & mechanism under test -------------------------------------------
  lb::PolicyKind policy = lb::PolicyKind::kTotalRequest;
  lb::MechanismKind mechanism = lb::MechanismKind::kBlocking;
  lb::BalancerConfig balancer;
  /// Clients keep a jvmRoute after their first interaction and the
  /// balancers honour it (mod_jk sticky sessions).
  bool sticky_sessions = false;
  /// Prequal-style load probing of the Tomcats (src/probe), one pool per
  /// Apache. Experiment::build() force-enables this whenever `policy` is
  /// probe-aware (kPowerOfD / kPrequal) so those policies never run blind;
  /// explicitly enabling it with another policy just measures probe overhead.
  probe::ProbeConfig probe;
  /// End-to-end overload control (src/control): deadline propagation, AIMD
  /// admission limiting, CoDel sojourn shedding, priority brownout. Copied
  /// into every tier's server config by Experiment::build(); clients stamp
  /// deadlines whenever `overload.stamp_deadlines` is on (so baseline cells
  /// can report comparable goodput without enforcing anything).
  control::OverloadConfig overload;
  /// Recovery orchestration (src/recovery): declares sustained-degradation
  /// episodes from the live completion stream and applies staged
  /// interventions — retry suppression, temporary hard shedding, cache
  /// refill gating, breaker reset at step-down. Rides the event bus, so
  /// Experiment::build() spins up a ring-less collector when nothing else
  /// needs one, like telemetry and online detection.
  recovery::RecoveryConfig recovery;

  // -- servers ------------------------------------------------------------------
  server::ApacheConfig apache;
  server::TomcatConfig tomcat;
  server::MySqlConfig mysql;
  server::DbRouterConfig db_router;

  // -- nodes & millibottleneck environment --------------------------------------
  /// Cores of every node (static: the paper's testbed has one node type).
  static constexpr int cores = 4;
  /// Effective writeback bandwidth of the 7200-rpm SATA data disk. Log
  /// writeback is scattered small blocks, so the effective rate sits well
  /// below the sequential maximum; 60 MB/s yields the paper's
  /// hundreds-of-milliseconds flush stalls at this log volume (calibrated
  /// against Table I's VLRT fractions).
  double disk_bytes_per_second = 60.0 * (1 << 20);
  /// pdflush active on the Tomcat nodes (the paper's organic millibottleneck
  /// source). Disable to reproduce the "millibottlenecks eliminated"
  /// baseline (Fig. 1).
  bool tomcat_millibottlenecks = true;
  /// What produces the Tomcat-side stalls when enabled (§III-A's causes).
  StallSource tomcat_stall_source = StallSource::kPdflush;
  /// Injector profile for the non-pdflush sources (period/duration/severity).
  millib::InjectorConfig injector = millib::gc_pause_profile();
  /// pdflush active on the MySQL node(s) — used by the DB-tier extension
  /// experiments (replica suffering millibottlenecks).
  bool mysql_millibottlenecks = false;
  os::PdflushConfig mysql_pdflush;
  /// Bursty arrivals (another §III-A cause): the client population
  /// alternates normal/burst phases (see ClientParams).
  bool bursty_workload = false;
  double burst_multiplier = 4.0;
  /// Chaos fault schedule, applied by a ChaosController during the run when
  /// non-empty (see experiment/chaos.h). Orthogonal to the organic
  /// millibottleneck sources above, and composable with them.
  millib::FaultPlan fault_plan;
  /// pdflush active on the Apache nodes (only the single-node anatomy
  /// experiment, Fig. 2, leaves these on).
  bool apache_millibottlenecks = false;
  os::PdflushConfig tomcat_pdflush;  // interval/threshold/severity knobs
  os::PdflushConfig apache_pdflush;
  /// First-wakeup offset between consecutive Tomcat nodes, so flushes do not
  /// line up across the tier (paper: one Tomcat at a time; its Fig. 2(a)
  /// shows bottleneck episodes recurring ≈1 s apart). With ≈1.1 s between
  /// consecutive Tomcats' stalls, a retransmitted SYN can collide with the
  /// *next* Tomcat's millibottleneck — the source of the 2 s/3 s VLRT
  /// clusters in Fig. 4.
  sim::SimTime pdflush_stagger = sim::SimTime::millis(1100);

  // -- metrics -------------------------------------------------------------------
  /// Gates every per-window figure series: CPU and Tomcat iowait per node,
  /// the Apache/MySQL/KV queue gauges, Tomcat dirty pages, and each
  /// balancer's lb_value, committed and assignment series. Off, none is
  /// allocated or written (CPU probes advance the PS clock, so the switch
  /// is not purely observational; see CpuResource::probe_utilisation).
  bool tracing = true;
  /// Keep every RequestRecord (needed only when dumping raw CSV).
  bool keep_records = false;
  /// Enable the cross-tier event trace (src/obs): every tier emits its
  /// fixed-vocabulary events into one ring buffer, exportable as JSONL or
  /// Chrome trace-event JSON and consumable by the CausalChainAnalyzer.
  bool event_trace = false;
  /// Event-trace ring capacity (events; ~48 B each). The oldest events are
  /// overwritten once full.
  std::size_t trace_capacity = 4u << 20;
  /// Streaming telemetry registry (src/metrics/telemetry): per-tier
  /// instruments, each a series of 50 ms windows (count/avg/max) for the
  /// whole run, fed from the live event stream; client.rt_ms reads the
  /// request log's response-time windows. Independent of event_trace —
  /// enabling it spins up the emission path with no retention ring.
  metrics::TelemetryConfig telemetry;
  /// Online millibottleneck detection (millib::OnlineDetector) during the
  /// run: flags episodes in real time from the same signature the offline
  /// analyzer reconstructs, and drives tail-based trace sampling.
  bool online_detect = false;
  millib::OnlineDetectorConfig online_detector;
  /// Tail-based trace sampling: keep only detector-marked episode windows,
  /// VLRT requests end to end, node-level signals and a deterministic head
  /// sample. Requires online_detect (the detector supplies the marks).
  obs::TailConfig trace_tail;

  /// Offered load in requests/second: clients / think time for the closed
  /// loop, trace arrivals / duration when replaying.
  double offered_rps() const {
    if (replay_trace)
      return static_cast<double>(replay_trace->size()) / duration.to_seconds();
    return static_cast<double>(num_clients) / think_mean.to_seconds();
  }

  /// The paper's operating point: 70 000 clients, 7 s mean think time,
  /// ≈180 s of traffic (≈1.8 M requests), 4 Apaches / 4 Tomcats / 1 MySQL.
  static ExperimentConfig paper_scale();

  /// Same offered load with `factor`× fewer clients thinking `factor`× less
  /// — the quick mode used by tests and default bench runs.
  static ExperimentConfig scaled(double factor = 0.1);

  /// The single-node anatomy setup of Fig. 2: 1 Apache, 1 Tomcat, 1 MySQL,
  /// millibottlenecks on both Apache and Tomcat, no balancing choice.
  static ExperimentConfig single_node(double factor = 0.1);

  /// Turn on the full resilience layer: active health probing, the
  /// probe-driven circuit breaker, and budgeted front-end retries.
  void enable_resilience();
};

std::string describe(const ExperimentConfig& c);

}  // namespace ntier::experiment
