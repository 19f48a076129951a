#pragma once

#include <array>
#include <cstdint>
#include <iosfwd>
#include <utility>
#include <vector>

#include "millib/online_detector.h"
#include "obs/trace.h"
#include "sim/time.h"

namespace ntier::millib {

/// Offline reconstruction of the paper's causal chain from a cross-tier
/// event trace (obs::TraceCollector output):
///
///   pdflush writeback → iowait spike → stalled (frozen) lb_value →
///   committed-queue spike → retransmission-offset VLRT cluster
///
/// The analyzer needs nothing but the trace: it replays the trace through an
/// OnlineDetector, whose spike runs over the per-Tomcat committed queues are
/// the queue-spike hop; iowait comes from the periodic kIoWait samples, and
/// lb_value freezes are gaps in the kLbValue update stream.
struct CausalChainConfig {
  /// The replayed detector. Its window, iowait_threshold, lb_freeze_min and
  /// vlrt_threshold_ms are also the analyzer's iowait-spike, frozen-lb_value
  /// and VLRT thresholds.
  OnlineDetectorConfig detector;
  /// Temporal slack when joining links to an OS episode: effects may lead
  /// the episode's bookkeeping slightly (threshold-triggered flushes) and
  /// trail it (queues drain after the stall lifts).
  sim::SimTime slack = sim::SimTime::millis(150);
  /// A KV quorum op completing with at least this much wait counts as slow
  /// when joining kv_quorum_read/write events onto a KV-tier episode.
  double kv_slow_quorum_ms = 50.0;
};

/// One reconstructed hop of the chain, relative to its OS episode.
struct ChainLink {
  bool present = false;
  /// Onset lag from the episode start (negative = led the episode).
  double lag_ms = 0.0;
  /// Link-specific magnitude: peak iowait fraction, freeze-gap ms, queue
  /// peak, or retransmission count.
  double magnitude = 0.0;
  std::uint64_t count = 0;
};

/// One OS-level episode (pdflush writeback or injected capacity stall) with
/// the downstream links the analyzer managed to join to it.
struct EpisodeChain {
  obs::Tier tier = obs::Tier::kTomcat;
  int node = -1;
  /// True for injected capacity stalls (stall_start/stall_stop), false for
  /// organic pdflush episodes.
  bool synthetic = false;
  sim::SimTime start;
  sim::SimTime end;
  /// Dirty bytes written back (pdflush) or severity (synthetic stall).
  double magnitude = 0.0;

  ChainLink iowait;
  ChainLink frozen_lb;
  ChainLink queue_spike;
  ChainLink retransmits;
  /// Slow KV quorum completions (wait >= kv_slow_quorum_ms) during the
  /// episode — the key-level signature of a hot-shard millibottleneck:
  /// a stalled shard member slows every quorum touching that shard, which
  /// no server-choice policy upstream can route around. Joined onto KV- and
  /// cache-tier episodes (a storm's miss spike lands on the hot shard);
  /// not part of full_chain().
  ChainLink kv_quorum;
  /// Cache misses during a cache-tier episode (invalidation storm): the
  /// miss-spike hop of the stampede chain write burst → invalidation storm
  /// → miss spike → hot-shard queue → VLRT. Only joined onto cache-tier
  /// episodes; not part of full_chain().
  ChainLink cache_miss;
  /// Overload-control sheds (admission_shed / deadline_expired events) fired
  /// while the episode — plus slack — was in progress: the counter-measures
  /// reacting to the stall. Not part of full_chain(): sheds only exist when
  /// a controller is configured.
  ChainLink sheds;
  /// VLRT requests attributed to this episode (filled by the analyzer).
  std::uint64_t vlrts = 0;

  /// The full paper chain: iowait + frozen lb_value + queue spike +
  /// retransmission cluster. Synthetic stalls have no writeback, so the
  /// iowait link is not required of them.
  bool full_chain() const {
    return (iowait.present || synthetic) && frozen_lb.present &&
           queue_spike.present && retransmits.present;
  }
};

/// Which per-request segment dominated a VLRT's latency.
enum class Hop : std::uint8_t {
  kConnect,    // client_send → worker_pickup (drops + backlog time)
  kBalancing,  // worker_pickup → endpoint_acquire (get_endpoint polling)
  kBackend,    // endpoint_acquire → endpoint_release (queue + service)
  kReply,      // endpoint_release → client_done
};

const char* to_string(Hop h);

struct VlrtAttribution {
  std::uint64_t request = 0;
  double response_ms = 0.0;
  /// Index into CausalChainReport::chains, -1 when unexplained.
  int episode = -1;
  Hop dominant = Hop::kConnect;
  /// Per-hop milliseconds, indexed by Hop.
  std::array<double, 4> hop_ms{};
  std::uint32_t retransmissions = 0;
  std::int32_t tomcat = -1;
};

/// Per-shard digest of the KV quorum stream (kv_quorum_read/write events,
/// node = shard). The hottest shards head the report's kv_shards list —
/// the trace-level view of where key-popularity skew landed.
struct KvShardSummary {
  int shard = -1;
  std::uint64_t ops = 0;
  /// Ops that completed while the shard was below full replication.
  std::uint64_t degraded_ops = 0;
  double mean_wait_ms = 0.0;
  double max_wait_ms = 0.0;
};

struct CausalChainReport {
  std::vector<EpisodeChain> chains;
  std::vector<VlrtAttribution> vlrt;
  /// KV data-tier activity (empty / zero when the trace has no KV events).
  /// kv_shards is sorted hottest-first by mean quorum wait.
  std::vector<KvShardSummary> kv_shards;
  std::uint64_t kv_handoff_replays = 0;
  std::uint64_t kv_read_repairs = 0;
  std::uint64_t kv_migrations = 0;
  /// Cache-tier activity over the whole trace (zero without a cache tier).
  std::uint64_t cache_hit_events = 0;
  std::uint64_t cache_miss_events = 0;
  std::uint64_t cache_invalidation_events = 0;
  std::uint64_t cache_invalidation_drops = 0;
  std::uint64_t cache_coalesced_events = 0;
  /// Events inspected / per-request joins, for sanity output.
  std::uint64_t events = 0;
  std::uint64_t requests = 0;
  /// Overload-control activity over the whole trace (zero without a
  /// configured controller): limiter/CoDel sheds, expired-work sheds, and
  /// AIMD limit adaptations.
  std::uint64_t admission_shed_events = 0;
  std::uint64_t deadline_shed_events = 0;
  std::uint64_t limit_updates = 0;
  /// Episodes the replayed OnlineDetector confirmed (not part of to_json).
  std::vector<OnlineEpisode> online_episodes;

  std::uint64_t full_chains() const;
  std::uint64_t attributed() const;
  /// Fraction of VLRT requests attributed to a detected episode (0 when the
  /// trace holds no VLRTs).
  double coverage() const;
  /// [start, end] of every Tomcat-tier chain, indexed by Tomcat: the ground
  /// truth OnlineDetector::score takes.
  std::vector<std::vector<std::pair<sim::SimTime, sim::SimTime>>>
  tomcat_truth_intervals() const;

  void print(std::ostream& os) const;
  void to_json(std::ostream& os) const;
};

/// Joins a chronological event trace into per-episode causal chains and
/// per-VLRT attributions.
class CausalChainAnalyzer {
 public:
  explicit CausalChainAnalyzer(CausalChainConfig config = {})
      : config_(config) {}

  CausalChainReport analyze(const std::vector<obs::TraceEvent>& events) const;

  const CausalChainConfig& config() const { return config_; }

 private:
  CausalChainConfig config_;
};

}  // namespace ntier::millib
