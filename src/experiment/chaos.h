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
///   kLinkFault   -> extra latency + loss on the client<->Apache link (the
///                   trace replayer's during replay)
///   kPoolLeak    -> slots acquired out of each balancer's pool and held
///   kDiskDegrade -> disk().set_rate_factor (longer writeback stalls)
///   kReplicaCrash   -> KvTier::on_replica_crashed/on_replica_recovered
///   kShardMigration -> KvTier::begin_migration/complete_migration
///   kInvalidationStorm -> CacheTier::begin_invalidation_storm
///   kGrayDataPath   -> TomcatServer::set_gray_degraded (probe path healthy)
///   kGrayLink       -> one Apache's route().link().set_fault (worker = Apache)
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
  /// The link between the clients and the Apaches: the trace replayer's
  /// when one drives the run (the closed-loop population is idle then).
  net::Link& client_link();
  void apply(std::size_t i);
  void clear(std::size_t i);

  Experiment& exp_;
  millib::FaultPlan plan_;
  std::vector<millib::FaultEvent> events_;
  std::vector<SpecState> state_;
  std::size_t cleared_ = 0;
  bool armed_ = false;
};

/// Post-run safety-property check. The chaos-matrix tests require all three to
/// hold for every policy x mechanism cell after traffic quiesces and the
/// drain window elapses.
struct InvariantReport {
  // Request conservation: issued == completed + failed + dropped.
  std::uint64_t issued = 0;
  std::uint64_t completed = 0;
  std::uint64_t failed = 0;
  std::uint64_t dropped = 0;
  std::uint64_t in_flight = 0;
  /// Requests some handle still holds once the run has drained (the client
  /// and replayer pools' live counts): a settled request that stays live
  /// was leaked by a component, not kept by a straggler.
  std::uint64_t requests_live = 0;

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
  /// Quorum-op records still held: an op stays until its last replica
  /// reply lands, so this reaches 0 only when every laggard has.
  std::uint64_t kv_ops_held = 0;

  // Cache-tier accounting (all zero when the run had no cache tier). Every
  // lookup resolves as a hit or a miss; every miss either started a fill or
  // joined one in flight; every invalidation sent is delivered or dropped —
  // with nothing pending and nothing in flight after the drain window.
  cache::CacheStats cache;
  std::uint64_t cache_invalidations_pending = 0;
  std::uint64_t cache_ops_in_flight = 0;
  std::uint64_t cache_fills_held = 0;

  bool conservation_ok() const { return in_flight == 0 && requests_live == 0; }
  bool pools_ok() const { return pool_in_use == 0 && pool_waiting == 0; }
  bool crash_ok() const { return crashed_accepts == 0; }
  bool kv_ok() const {
    return kv.reads_issued == kv.quorum_reads + kv.quorum_failed_reads &&
           kv.writes_issued ==
               kv.quorum_writes + kv.quorum_failed_writes + kv.migration_shed &&
           kv.hints_pending() == 0 && kv.crashed_dispatches == 0 &&
           kv_ops_in_flight == 0 && kv_ops_held == 0;
  }
  bool cache_ok() const {
    return cache.lookups == cache.hits + cache.misses &&
           cache.misses == cache.fills_started + cache.coalesced_fills &&
           cache.invalidations_sent ==
               cache.invalidations_delivered + cache.invalidations_dropped &&
           cache_invalidations_pending == 0 && cache_ops_in_flight == 0 &&
           cache_fills_held == 0;
  }
  bool ok() const {
    return conservation_ok() && pools_ok() && crash_ok() && kv_ok() &&
           cache_ok();
  }
  std::string to_string() const;
};

/// Evaluate the three invariants on a finished (quiesced + drained) run.
InvariantReport check_invariants(Experiment& e);

/// Digest of one chaos run: the usual summary (the resilience counters
/// included), the invariants and the fault trace.
struct ChaosRunResult {
  std::string label;
  RunSummary summary;
  InvariantReport invariants;
  std::string fault_trace;
};

/// Run `config` with traffic quiesced at `traffic`; the remainder of
/// config.duration (>= traffic + expected drain) lets in-flight work,
/// retransmission chains and fault clears settle before the invariants are
/// evaluated. Sets config.duration = traffic + drain.
ChaosRunResult run_chaos(ExperimentConfig config, sim::SimTime traffic,
                         sim::SimTime drain);

}  // namespace ntier::experiment
