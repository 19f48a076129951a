#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "cache/tier.h"
#include "experiment/experiment.h"
#include "experiment/summary.h"
#include "kv/tier.h"
#include "millib/fault_plan.h"
#include "sim/time.h"

namespace ntier::experiment {

/// Executes a FaultPlan against a built Experiment: maps each FaultSpec onto
/// the live components (CPUs, disks, links, Tomcats, endpoint pools),
/// applies it at spec.start and reverts it at spec.end, and records the
/// applied/cleared instants as an episode trace.
///
/// Owned by the Experiment (built automatically when config.fault_plan is
/// non-empty); the mapping per kind:
///   kCapacityStall / kCorrelatedStall -> cpu().set_capacity_factor
///   kCrash       -> TomcatServer::crash/restart + draining every Apache's
///                   endpoint-pool wait queue for that worker
///   kLinkFault   -> extra latency + loss on the client<->Apache link
///   kPoolLeak    -> slots acquired out of each balancer's pool and held
///   kDiskDegrade -> disk().set_rate_factor (longer writeback stalls)
///   kReplicaCrash   -> KvTier::on_replica_crashed/on_replica_recovered
///   kShardMigration -> KvTier::begin_migration/complete_migration
///   kInvalidationStorm -> CacheTier::begin_invalidation_storm
///   kGrayDataPath   -> TomcatServer::set_gray_degraded (probe path healthy)
///   kGrayLink       -> one Apache's tomcat_link().set_fault (worker = Apache)
///   kGraySlowReplica -> KvReplica::set_slow (alive, never trips the detector)
/// The KV kinds are no-ops when the experiment runs the MySQL data tier;
/// the storm kind is a no-op when no cache tier is configured.
class ChaosController {
 public:
  ChaosController(Experiment& exp, millib::FaultPlan plan);

  ChaosController(const ChaosController&) = delete;
  ChaosController& operator=(const ChaosController&) = delete;

  /// Schedule every spec; called once by Experiment::build.
  void arm();

  const millib::FaultPlan& plan() const { return plan_; }
  /// One entry per spec, filled in as faults apply and clear.
  const std::vector<millib::FaultEvent>& events() const { return events_; }
  std::size_t faults_applied() const { return applied_; }
  std::size_t faults_cleared() const { return cleared_; }
  /// Applied/cleared episode trace (one line each) — the chaos artefact the
  /// determinism test compares across same-seed runs.
  std::string trace_string() const;

 private:
  /// Per-spec saved state so clear() restores exactly what apply() changed.
  struct SpecState {
    std::vector<double> saved_cpu_factors;
    double saved_disk_factor = 1.0;
    std::vector<int> leaked;  // per Apache: slots actually acquired
  };

  int target_worker(const millib::FaultSpec& spec) const;
  void apply(std::size_t i);
  void clear(std::size_t i);

  Experiment& exp_;
  millib::FaultPlan plan_;
  std::vector<millib::FaultEvent> events_;
  std::vector<SpecState> state_;
  std::size_t applied_ = 0;
  std::size_t cleared_ = 0;
  bool armed_ = false;
};

/// Post-run safety-property check. The chaos matrix requires all three to
/// hold for every policy x mechanism cell after traffic quiesces and the
/// drain window elapses.
struct InvariantReport {
  // Request conservation: issued == completed + failed + dropped.
  std::uint64_t issued = 0;
  std::uint64_t completed = 0;
  std::uint64_t failed = 0;
  std::uint64_t dropped = 0;
  std::uint64_t in_flight = 0;

  // Endpoint-pool accounting across every balancer (Apache and DB tiers):
  // all slots returned, no waiter leaked.
  std::uint64_t pool_in_use = 0;
  std::uint64_t pool_waiting = 0;

  // No crashed Tomcat ever accepted a request.
  std::uint64_t crashed_accepts = 0;

  // KV write/read accounting (all zero when the run used the MySQL tier).
  // Every issued op must resolve: quorum met, quorum failed, or (writes
  // during a migration handover) shed — and every write replica missed while
  // a replica was down must end up replayed via hinted handoff or counted as
  // dropped, never silently lost.
  kv::KvStats kv;
  std::uint64_t kv_ops_in_flight = 0;

  // Cache-tier accounting (all zero when the run had no cache tier). Every
  // lookup resolves as a hit or a miss; every miss either started a fill or
  // joined one in flight; every invalidation sent is delivered or dropped —
  // with nothing pending and nothing in flight after the drain window.
  cache::CacheStats cache;
  std::uint64_t cache_invalidations_pending = 0;
  std::uint64_t cache_ops_in_flight = 0;

  bool conservation_ok() const { return in_flight == 0; }
  bool pools_ok() const { return pool_in_use == 0 && pool_waiting == 0; }
  bool crash_ok() const { return crashed_accepts == 0; }
  bool kv_ok() const {
    return kv.reads_issued == kv.quorum_reads + kv.quorum_failed_reads &&
           kv.writes_issued ==
               kv.quorum_writes + kv.quorum_failed_writes + kv.migration_shed &&
           kv.hints_pending() == 0 && kv.crashed_dispatches == 0 &&
           kv_ops_in_flight == 0;
  }
  bool cache_ok() const {
    return cache.lookups == cache.hits + cache.misses &&
           cache.misses == cache.fills_started + cache.coalesced_fills &&
           cache.invalidations_sent ==
               cache.invalidations_delivered + cache.invalidations_dropped &&
           cache_invalidations_pending == 0 && cache_ops_in_flight == 0;
  }
  bool ok() const {
    return conservation_ok() && pools_ok() && crash_ok() && kv_ok() &&
           cache_ok();
  }
  std::string to_string() const;
};

/// Evaluate the three invariants on a finished (quiesced + drained) run.
InvariantReport check_invariants(Experiment& e);

/// Digest of one chaos run: the usual summary plus invariants, the fault
/// trace, and the resilience-layer counters.
struct ChaosRunResult {
  std::string label;
  RunSummary summary;
  InvariantReport invariants;
  std::string fault_trace;
  std::uint64_t breaker_trips = 0;
  std::uint64_t probes_sent = 0;
  std::uint64_t probes_timed_out = 0;
};

/// Run `config` with traffic quiesced at `traffic`; the remainder of
/// config.duration (>= traffic + expected drain) lets in-flight work,
/// retransmission chains and fault clears settle before the invariants are
/// evaluated. Sets config.duration = traffic + drain.
ChaosRunResult run_chaos(ExperimentConfig config, sim::SimTime traffic,
                         sim::SimTime drain);

/// One cell-sized configuration of the chaos matrices. All four runners
/// share it; the KV and cache runners also read kv_replicas / cache_nodes.
struct ChaosMatrixOptions {
  std::uint64_t chaos_seed = 1;
  /// Turn on prober + breaker + budgeted retries in every cell.
  bool resilience = false;
  /// Run every cell with the recovery orchestration layer active; the
  /// safety invariants must survive its interventions (suppressed retries
  /// and recovery 503s are answered, never lost, and step-down breaker
  /// resets may not leak pool slots).
  bool recovery = false;
  /// Overload control applied in every cell (kNone = seed behaviour). The
  /// safety invariants must survive deadline/admission/CoDel shedding on
  /// top of the fault schedule — sheds are answered, never lost.
  control::OverloadMode overload = control::OverloadMode::kNone;
  int num_apaches = 2;
  int num_tomcats = 3;
  /// KV fleet size (kv.replicas) of the KV and cache matrices; quorum stays
  /// the N=3, R=W=2 default.
  int kv_replicas = 5;
  /// Cache nodes (cache.nodes) of the cache matrix.
  int cache_nodes = 2;
  int num_clients = 400;
  sim::SimTime think_mean = sim::SimTime::millis(200);
  sim::SimTime traffic = sim::SimTime::seconds(10);
  sim::SimTime drain = sim::SimTime::seconds(8);
};

/// The randomized fault schedule used by the matrix (also handy on its own:
/// the determinism test replays it).
millib::FaultPlan matrix_plan(const ChaosMatrixOptions& opt);

/// Run the seeded fault schedule against every policy (7) x mechanism (3)
/// combination — 21 cells, same plan in each — and return per-cell results.
std::vector<ChaosRunResult> run_chaos_matrix(const ChaosMatrixOptions& opt);

/// Hand-written gray-failure schedule over the matrix testbed: one gray
/// data-path fault, one gray link fault on one Apache, and a second gray
/// data-path fault overlapping the link fault — all differential-
/// observability (the prober, breaker and piggybacked reports keep seeing
/// healthy nodes), all cleared before traffic ends.
millib::FaultPlan gray_matrix_plan(const ChaosMatrixOptions& opt);

/// Run the gray-failure schedule against a policy x mechanism slice of the
/// matrix (resilience/recovery per the options — the interesting cells are
/// resilience-on, where every detector is being evaded, and recovery-on,
/// where the orchestrator must catch what the breaker cannot).
std::vector<ChaosRunResult> run_gray_chaos_matrix(const ChaosMatrixOptions& opt);

/// Hand-written KV fault schedule: two non-overlapping replica crashes that
/// both recover before traffic ends (so hinted handoff replays inside the
/// run) plus two shard migrations. Non-overlapping crashes keep every shard
/// at >= N-1 live members, so the R=W=2 quorums must never fail.
millib::FaultPlan kv_matrix_plan(const ChaosMatrixOptions& opt);

/// Run the KV fault schedule against a policy x mechanism slice of the
/// matrix with db_tier = kKv, and return per-cell results. Each cell's
/// InvariantReport must satisfy kv_ok() in addition to the usual three.
std::vector<ChaosRunResult> run_kv_chaos_matrix(const ChaosMatrixOptions& opt);

/// Hand-written cache fault schedule: two invalidation storms (the second
/// wider than the first) plus one recovering replica crash, so cache
/// accounting is checked both under queue pressure and while the backing
/// quorum is degraded.
millib::FaultPlan cache_matrix_plan(const ChaosMatrixOptions& opt);

/// Run the cache fault schedule against a policy x mechanism slice of the
/// matrix with cache_tier = true, and return per-cell results. Each cell's
/// InvariantReport must satisfy cache_ok() in addition to kv_ok() and the
/// usual three.
std::vector<ChaosRunResult> run_cache_chaos_matrix(const ChaosMatrixOptions& opt);

}  // namespace ntier::experiment
