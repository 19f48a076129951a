#pragma once

#include <cstdint>
#include <deque>
#include <utility>
#include <vector>

#include "kv/config.h"
#include "metrics/time_series.h"
#include "os/node.h"
#include "sim/callback.h"
#include "sim/flat_map.h"
#include "sim/ring.h"
#include "sim/simulation.h"
#include "sim/slot_table.h"

namespace ntier::kv {

/// Server-side concurrency cap; work beyond it queues FIFO (the shard queue
/// the hot-key scenarios make visible).
inline constexpr int kReplicaMaxConnections = 256;

/// One missed write stashed on a stand-in replica, replayed on recovery.
struct Hint {
  std::uint64_t key = 0;
  std::uint64_t version = 0;
  sim::SimTime demand;  // the original write's CPU demand, re-run on replay
  int home = -1;        // the replica the write was meant for
};

/// One storage node of the KV tier: a versioned key store executing CPU
/// demands on its os::Node (FIFO beyond the connection cap, mirroring
/// MySqlServer), plus a bounded hinted-handoff queue it holds for crashed
/// peers. Crash/restart follows the Tomcat pattern: a crashed replica is
/// fenced by the tier's failure detector; in-flight work drains normally.
class KvReplica {
 public:
  /// `hint_capacity` bounds the hints held for crashed peers
  /// (KvConfig::hint_capacity).
  KvReplica(sim::Simulation& simu, os::Node& node, int id,
            std::size_t hint_capacity = KvConfig{}.hint_capacity);

  KvReplica(const KvReplica&) = delete;
  KvReplica& operator=(const KvReplica&) = delete;

  /// Execute one operation of the given CPU demand; `done` fires on
  /// completion (storage reads/writes happen inside `done`, at completion
  /// time, so queueing delay is part of the operation).
  void execute(sim::SimTime demand, sim::Callback<void()> done);

  // -- versioned store --------------------------------------------------------
  std::uint64_t version_of(std::uint64_t key) const;
  /// Apply a write if `version` advances the stored one; returns true when
  /// the store changed (dirties kLogBytesPerWrite on the node).
  bool apply_write(std::uint64_t key, std::uint64_t version);
  /// Migration ingest: bulk bytes dirtied without a key-level write.
  void dirty_bytes(std::uint32_t bytes);

  // -- crash / restart --------------------------------------------------------
  void crash() { crashed_ = true; }
  void restart() { crashed_ = false; }
  bool crashed() const { return crashed_; }

  // -- gray fault: slow-but-alive -------------------------------------------
  /// Inflate every op's CPU demand by 1/(1-severity) while the replica keeps
  /// answering (never trips the tier's failure detector). Quorum R masks the
  /// slow votes from the failure counters; the tail absorbs them.
  void set_slow(double severity);
  void clear_slow() { slow_factor_ = 1.0; }
  bool slow() const { return slow_factor_ > 1.0; }
  /// Ops executed at inflated demand (chaos accounting).
  std::uint64_t slow_ops() const { return slow_ops_; }

  // -- hinted handoff (hints this replica HOLDS for others) -------------------
  /// Stash a hint; false when the bounded queue is full.
  bool store_hint(const Hint& h);
  /// Remove and return every held hint destined for `home`, FIFO order.
  std::vector<Hint> take_hints_for(int home);
  std::size_t hints_held() const { return hints_.size(); }

  // -- observability ----------------------------------------------------------
  int id() const { return id_; }
  int resident() const { return resident_; }
  /// Record resident() into `g` on every change (null = off; the caller
  /// owns and finishes the series).
  void set_queue_series(metrics::GaugeSeries* g) { queue_series_ = g; }
  std::uint64_t ops_served() const { return served_; }
  std::uint64_t writes_applied() const { return writes_applied_; }
  os::Node& node() { return node_; }

 private:
  /// One operation from execute() to its completion; the CPU job captures
  /// only its handle.
  struct Op {
    sim::SimTime demand;
    sim::Callback<void()> done;
  };
  using OpHandle = sim::SlotTable<Op>::Handle;
  void start(OpHandle h);
  void on_op_done(OpHandle h);

  sim::Simulation& sim_;
  os::Node& node_;
  int id_;
  std::size_t hint_capacity_;
  bool crashed_ = false;
  double slow_factor_ = 1.0;  // > 1 while a gray slow-replica fault is on
  std::uint64_t slow_ops_ = 0;
  int executing_ = 0;
  int resident_ = 0;
  std::uint64_t served_ = 0;
  std::uint64_t writes_applied_ = 0;
  sim::FlatMap versions_;  // key -> newest applied version (>= 1)
  sim::SlotTable<Op> ops_;
  sim::Ring<OpHandle> waiting_;  // beyond the connection cap, FIFO
  std::deque<Hint> hints_;
  metrics::GaugeSeries* queue_series_ = nullptr;
};

}  // namespace ntier::kv
