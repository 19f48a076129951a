#pragma once

#include <cstdint>
#include <vector>

#include "kv/config.h"
#include "kv/replica.h"
#include "kv/ring.h"
#include "net/link.h"
#include "obs/trace.h"
#include "proto/request.h"
#include "sim/callback.h"
#include "sim/simulation.h"
#include "sim/slot_table.h"

namespace ntier::kv {

/// Counters of everything the KV tier did — the raw material for the chaos
/// hinted-handoff accounting invariant: every write issued is eventually
/// applied (quorum met), shed by a migration handover, or failed for lack
/// of a quorum; every missed per-replica write resolves to a replayed hint
/// or a counted drop. Nothing is silently lost.
struct KvStats {
  std::uint64_t reads_issued = 0;
  std::uint64_t writes_issued = 0;
  std::uint64_t quorum_reads = 0;    // reads that met the R quorum
  std::uint64_t quorum_writes = 0;   // writes that met the W quorum
  std::uint64_t quorum_failed_reads = 0;
  std::uint64_t quorum_failed_writes = 0;
  std::uint64_t read_repairs = 0;
  /// Down preference-list members seen by dispatched writes (each becomes a
  /// hint or a handoff_dropped).
  std::uint64_t write_replicas_missed = 0;
  std::uint64_t hints_created = 0;
  std::uint64_t hints_replayed = 0;
  std::uint64_t handoff_dropped = 0;  // no stand-in alive, or holder full
  std::uint64_t migration_shed = 0;   // writes refused in a handover window
  std::uint64_t migrations_started = 0;
  std::uint64_t migrations_completed = 0;
  std::uint64_t migrations_aborted = 0;
  std::uint64_t migration_chunks = 0;
  /// Operations the tier dispatched to a replica its failure detector knew
  /// was dead — the KV analogue of crashed_accepts; must stay zero.
  std::uint64_t crashed_dispatches = 0;
  std::uint64_t degraded_ops = 0;  // quorum ops completed with a member down
  double quorum_wait_ms_sum = 0;   // over quorum_reads + quorum_writes
  double degraded_wait_ms = 0;

  /// Missed writes not yet resolved to a replay or a drop (0 after every
  /// crashed replica recovered and the drain settled).
  std::uint64_t hints_pending() const {
    return write_replicas_missed - hints_replayed - handoff_dropped;
  }
  double mean_quorum_wait_ms() const {
    const std::uint64_t ops = quorum_reads + quorum_writes;
    return ops ? quorum_wait_ms_sum / static_cast<double>(ops) : 0.0;
  }
};

/// The quorum coordinator of the replicated sharded KV tier. Owns the
/// consistent-hash ring and the per-shard membership table; executes
/// strict-quorum reads/writes against the alive preference-list members,
/// stashes hinted handoffs for the dead ones, read-repairs divergent
/// replicas, replays hints on recovery, and runs seeded shard migrations
/// whose copy work is itself a millibottleneck source. One KvTier is shared
/// by every DbRouter (it IS the data tier), exactly as the MySQL replica
/// vector is shared in mysql mode.
class KvTier {
 public:
  /// Completion of one client-visible operation; ok=false means the quorum
  /// could not be met (or the write was shed by a migration handover) — the
  /// router surfaces it like a SQL error.
  using DoneFn = sim::Callback<void(bool ok)>;

  KvTier(sim::Simulation& simu, std::vector<KvReplica*> replicas,
         KvConfig config, sim::SimTime link_latency);

  KvTier(const KvTier&) = delete;
  KvTier& operator=(const KvTier&) = delete;

  void read(const proto::RequestRef& req, sim::SimTime demand, DoneFn done);
  void write(const proto::RequestRef& req, sim::SimTime demand, DoneFn done);

  /// Failure-detector hooks (the chaos controller calls these around
  /// KvReplica::crash/restart). Recovery triggers hint replay both *to* the
  /// recovered replica and *from* it (hints it held for alive homes).
  void on_replica_crashed(int r);
  void on_replica_recovered(int r);

  /// Seeded shard rebalancing: move `shard` off its first alive member to
  /// the next ring successor outside the preference list. Chunked CPU work
  /// on source and destination for `duration`; writes inside the final
  /// handover window are shed. `intensity` scales the chunk demand.
  void begin_migration(int shard, sim::SimTime duration, double intensity);
  /// Swap the membership table at the end of a migration (idempotent; also
  /// self-scheduled at the migration's end).
  void complete_migration(int shard);

  void set_trace(obs::TraceCollector* t) { trace_ = t; }
  /// Close degraded-time intervals at end of run.
  void finish(sim::SimTime now);

  // -- topology ---------------------------------------------------------------
  const KvConfig& config() const { return config_; }
  int num_replicas() const { return static_cast<int>(replicas_.size()); }
  KvReplica& replica(int i) { return *replicas_[static_cast<std::size_t>(i)]; }
  int num_shards() const { return config_.shards; }
  int shard_of(std::uint64_t key) const;
  const std::vector<int>& shard_members(int shard) const {
    return members_[static_cast<std::size_t>(shard)];
  }
  bool alive(int r) const { return alive_[static_cast<std::size_t>(r)]; }

  // -- accounting -------------------------------------------------------------
  const KvStats& stats() const { return stats_; }
  /// Client-visible quorum ops still outstanding (0 after drain).
  std::uint64_t ops_in_flight() const { return ops_in_flight_; }
  /// Quorum-op records still held, including completed ops that await a
  /// laggard reply (0 after drain).
  std::size_t ops_held() const { return ops_.size(); }
  /// Hints physically held across all replicas right now.
  std::uint64_t hints_held() const;
  /// Time each shard spent with >= 1 preference-list member down.
  double shard_degraded_ms(int shard) const {
    return degraded_ms_[static_cast<std::size_t>(shard)];
  }

 private:
  /// One client-visible quorum operation. It stays in `ops_` until its last
  /// replica reply has landed, so a laggard past the quorum still finds the
  /// request (and its key) it was sent for; every per-replica continuation
  /// captures only `{this, handle, replica}`.
  struct QuorumOp {
    bool is_write = false;
    bool completed = false;
    int shard = -1;
    int needed = 0;
    int sent = 0;
    int replies = 0;
    /// Read replies recorded before the quorum completed (the first
    /// `needed` repliers), in arrival order: `reply_log_` at this op's slot.
    int logged = 0;
    proto::RequestRef req;
    sim::SimTime demand;
    std::uint64_t version = 0;  // write: new version; read: unused
    sim::SimTime started;
    DoneFn done;
  };
  using OpHandle = sim::SlotTable<QuorumOp>::Handle;

  /// A missed write on its way to (and into) its stand-in replica.
  struct Handoff {
    Hint hint;
    int holder = -1;
  };
  using HandoffHandle = sim::SlotTable<Handoff>::Handle;

  /// One holder's hints being replayed to a recovered home, paced one hint
  /// per kHintReplayGap. `pending` counts the replay chain itself plus every
  /// replayed write still executing on the home; the record goes with the
  /// last of them.
  struct Replay {
    int holder = -1;
    std::vector<Hint> hints;
    int pending = 0;
  };
  using ReplayHandle = sim::SlotTable<Replay>::Handle;

  /// A read repair on its way to a stale replica.
  struct Repair {
    int target = -1;
    std::uint64_t key = 0;
    std::uint64_t version = 0;
  };

  struct Migration {
    bool active = false;
    int src = -1;
    int dest = -1;
    sim::SimTime end;
    sim::SimTime chunk_demand;  // kMigrationChunkDemand scaled by intensity
  };

  /// Admit an op that has its quorum of live members; returns its handle.
  OpHandle open_op(bool is_write, const proto::RequestRef& req,
                   sim::SimTime demand, int shard, int needed, DoneFn done);
  void dispatch(OpHandle h, int rep);
  void on_reply(OpHandle h, int rep);
  void complete_op(OpHandle h);
  void issue_read_repairs(const QuorumOp& op, OpHandle h);
  void stash_hint(int home, const proto::RequestRef& req, sim::SimTime demand,
                  std::uint64_t version);
  void replay_hints(int holder, int home);
  void replay_one(ReplayHandle rh, std::size_t i);
  void release_replay(ReplayHandle rh);
  void migration_chunk(int shard);
  void mark_member_down(int shard);
  void mark_member_up(int shard);
  void recount_shard(int shard);

  sim::Simulation& sim_;
  std::vector<KvReplica*> replicas_;
  KvConfig config_;
  net::Link link_;
  HashRing ring_;
  obs::TraceCollector* trace_ = nullptr;

  std::vector<std::vector<int>> members_;  // shard -> preference list
  std::vector<bool> alive_;
  std::uint64_t clock_ = 0;  // global logical version counter (deterministic)
  KvStats stats_;
  std::uint64_t ops_in_flight_ = 0;

  sim::SlotTable<QuorumOp> ops_;
  /// Per-op side arrays indexed by slot (grown with `ops_`): the version
  /// each replica read, held from its execution until its reply lands
  /// (stride num_replicas()), and the read-reply log (stride config_.n).
  std::vector<std::uint64_t> read_version_;
  std::vector<std::pair<int, std::uint64_t>> reply_log_;
  sim::SlotTable<Handoff> handoffs_;
  sim::SlotTable<Replay> replays_;
  sim::SlotTable<Repair> repairs_;

  std::vector<Migration> migrations_;       // by shard
  std::vector<int> down_members_;           // by shard
  std::vector<sim::SimTime> degraded_since_;  // by shard (valid when down > 0)
  std::vector<double> degraded_ms_;         // by shard, closed intervals
};

}  // namespace ntier::kv
