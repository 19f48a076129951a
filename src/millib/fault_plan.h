#pragma once

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "sim/time.h"

namespace ntier::millib {

/// The fault families the chaos harness can inject. `kCapacityStall` is the
/// paper's millibottleneck generalised (the CapacityStallInjector's single
/// family); the rest extend the reproduction toward the failures a
/// production balancer must survive: whole-backend crashes, lossy/slow
/// links, leaked connection slots, degraded writeback devices, and
/// *correlated* stalls hitting several backends inside one window (the case
/// the per-worker Busy/Error state machine is blind to).
enum class FaultKind : std::uint8_t {
  kCapacityStall,    // one backend's CPU loses `severity` of its capacity
  kCorrelatedStall,  // the same stall applied to every backend at once
  kCrash,            // backend refuses all new work, restarts after duration
  kLinkFault,        // extra latency + packet loss on the client link
  kPoolLeak,         // endpoint slots held past their response
  kDiskDegrade,      // writeback bandwidth scaled down (longer flush stalls)
  // -- KV data tier (appended to keep prior numeric values stable) ------------
  kReplicaCrash,     // one KV replica fail-stops; quorums continue at N-1,
                     // hinted handoff replays the missed writes on restart
  kShardMigration,   // seeded rebalance of one shard (worker = shard index);
                     // chunked copy CPU + a write-shedding handover window
  // -- cache tier (appended to keep prior numeric values stable) ---------------
  kInvalidationStorm,  // write burst sweeping the hot key set: periodic
                       // invalidations of the hottest Zipf ranks for the
                       // fault's duration (severity scales the sweep width)
  // -- gray failures (appended to keep prior numeric values stable) -------------
  // Differential-observability faults: the data path degrades while the
  // probe/health path keeps answering at normal speed, so the health prober,
  // the circuit breaker and prequal's piggybacked load reports all keep
  // reporting the node healthy.
  kGrayDataPath,     // one Tomcat's request service time inflated
                     // 1/(1-severity)x (0.8 => 5x, 0.95 => 20x) while
                     // probe_load() answers at pre-fault speed
                     // and reports frozen pre-fault load values
  kGrayLink,         // partial asymmetric loss + latency on ONE Apache's
                     // Tomcat link (worker = Apache index); the other
                     // Apaches' probes still see a healthy backend
  kGraySlowReplica,  // one KV replica stays alive but executes every op
                     // 1/(1-severity)x slower; quorum R masks the failure
                     // counters while the tail absorbs the slow votes
};

std::string to_string(FaultKind k);

/// One scheduled fault: what, where, when, how hard. A plan is just a list
/// of these; executors map each spec onto the live components.
struct FaultSpec {
  FaultKind kind = FaultKind::kCapacityStall;
  /// Target backend index; -1 targets every backend (kCorrelatedStall and
  /// kLinkFault ignore it).
  int worker = -1;
  sim::SimTime start;
  sim::SimTime duration;
  /// Stall: fraction of CPU capacity removed. DiskDegrade: fraction of
  /// writeback bandwidth removed.
  double severity = 1.0;
  sim::SimTime extra_latency;   // kLinkFault: added one-way latency
  double loss_probability = 0;  // kLinkFault: packet loss on the client link
  int leak_slots = 0;           // kPoolLeak: slots held per balancer

  sim::SimTime end() const { return start + duration; }
  /// Stable single-line rendering — the unit the determinism tests compare.
  std::string to_string() const;
};

/// Fixed bounds of `FaultPlan::randomized` draws: the shortest fault, and the
/// link faults' added latency and loss probability (drawn from 0.05 up).
inline constexpr sim::SimTime kMinFaultDuration = sim::SimTime::millis(120);
inline constexpr sim::SimTime kMaxExtraLatency = sim::SimTime::millis(20);
inline constexpr double kMaxLossProbability = 0.4;
/// Endpoint slots a randomized kPoolLeak holds per balancer.
inline constexpr int kLeakSlots = 8;

/// Number of FaultKind values.
inline constexpr std::size_t kNumFaultKinds =
    static_cast<std::size_t>(FaultKind::kGraySlowReplica) + 1;

/// Relative draw weights of `FaultPlan::randomized`, indexed by FaultKind
/// order; zero disables a kind. The KV, cache and gray kinds are zero: they
/// are no-ops against a MySQL tier, and gray failures are hand-placed.
/// Appending zero-weight tail entries leaves every existing seed's draw
/// sequence intact.
inline constexpr std::array<double, kNumFaultKinds> kFaultKindWeights = {
    3, 1, 2, 2, 1, 1, 0, 0, 0, 0, 0, 0};

/// Knobs for `FaultPlan::randomized`. Defaults produce a varied schedule
/// that fits inside a ~20 s scaled run and clears before its end.
struct FaultPlanConfig {
  /// No fault starts after this instant (clears may run `max_duration`
  /// longer).
  sim::SimTime horizon = sim::SimTime::seconds(18);
  sim::SimTime initial_offset = sim::SimTime::seconds(4);
  /// Mean gap between consecutive fault starts (exponential).
  sim::SimTime mean_gap = sim::SimTime::millis(1500);
  sim::SimTime max_duration = sim::SimTime::millis(1800);
  std::size_t max_faults = 16;
};

/// A composable, seed-deterministic fault schedule. Identical (seed, config,
/// num_workers) inputs produce byte-identical plans — the property the chaos
/// determinism test guards.
struct FaultPlan {
  std::vector<FaultSpec> specs;

  bool empty() const { return specs.empty(); }
  std::size_t size() const { return specs.size(); }

  /// Append another plan's specs (composability: mix a hand-written crash
  /// scenario with a randomized background schedule).
  FaultPlan& merge(const FaultPlan& other);

  /// Seeded random schedule over `num_workers` backends.
  static FaultPlan randomized(std::uint64_t seed, const FaultPlanConfig& config,
                              int num_workers);

  /// A single fault, for hand-built scenarios.
  static FaultPlan single(FaultSpec spec);

  /// One line per spec, in schedule order — the episode-trace artefact.
  std::string trace_string() const;
};

/// What an executor records per applied spec (mirrors StallEpisode for the
/// generic harness).
struct FaultEvent {
  FaultSpec spec;
  sim::SimTime applied;
  sim::SimTime cleared;
};

}  // namespace ntier::millib
