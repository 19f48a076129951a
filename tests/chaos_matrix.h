#pragma once

// The chaos-matrix test fixture: seeded and hand-written fault schedules
// replayed against policy x mechanism cells of one small testbed (2 Apaches,
// 3 Tomcats, 200 clients thinking 200 ms; a 5-replica KV tier and 2 cache
// nodes in the cells that use them). Every cell runs through run_chaos, so
// its InvariantReport is evaluated after traffic quiesces and drains.

#include <cstdint>
#include <vector>

#include "control/overload.h"
#include "experiment/chaos.h"
#include "millib/fault_plan.h"
#include "sim/time.h"

namespace ntier::experiment {

struct ChaosMatrixOptions {
  std::uint64_t chaos_seed = 42;
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
  /// Traffic quiesces here. The drain after it must outlast the worst client
  /// retransmission chain (5 x 1 s) so conservation can be checked with zero
  /// requests still in flight.
  sim::SimTime traffic = sim::SimTime::seconds(6);
  sim::SimTime drain = sim::SimTime::seconds(6);
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
