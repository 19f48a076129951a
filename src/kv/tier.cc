#include "kv/tier.h"

#include <algorithm>
#include <utility>

#include "sim/rng.h"

namespace ntier::kv {

namespace {

/// CPU demand of stashing one hint on the stand-in.
constexpr sim::SimTime kHintStoreDemand = sim::SimTime::micros(20);
/// Pacing between replayed hints on recovery — the replay itself is a load
/// spike on the recovering replica, deliberately visible.
constexpr sim::SimTime kHintReplayGap = sim::SimTime::micros(200);

/// Shard migration (seeded rebalancing): the source and destination burn one
/// chunk of CPU every interval for the fault's duration — the rebalancing
/// millibottleneck — and writes landing inside the final handover window are
/// shed (migration_shed).
constexpr sim::SimTime kMigrationChunkInterval = sim::SimTime::millis(5);
constexpr sim::SimTime kMigrationChunkDemand = sim::SimTime::millis(2);
constexpr std::uint32_t kMigrationBytesPerChunk = 262'144;
constexpr sim::SimTime kMigrationHandover = sim::SimTime::millis(50);

}  // namespace

KvTier::KvTier(sim::Simulation& simu, std::vector<KvReplica*> replicas,
               KvConfig config, sim::SimTime link_latency)
    : sim_(simu),
      replicas_(std::move(replicas)),
      config_(config),
      link_(link_latency),
      ring_(static_cast<int>(replicas_.size()), config_.vnodes) {
  const auto shards = static_cast<std::size_t>(config_.shards);
  members_.reserve(shards);
  for (int s = 0; s < config_.shards; ++s)
    members_.push_back(ring_.preference_list(static_cast<std::uint64_t>(s),
                                             config_.n));
  alive_.assign(replicas_.size(), true);
  migrations_.assign(shards, Migration{});
  down_members_.assign(shards, 0);
  degraded_since_.assign(shards, sim::SimTime::zero());
  degraded_ms_.assign(shards, 0.0);
}

int KvTier::shard_of(std::uint64_t key) const {
  return static_cast<int>(sim::Rng::mix64(key) %
                          static_cast<std::uint64_t>(config_.shards));
}

std::uint64_t KvTier::hints_held() const {
  std::uint64_t total = 0;
  for (const auto* r : replicas_) total += r->hints_held();
  return total;
}

void KvTier::read(const proto::RequestPtr& req, sim::SimTime demand,
                  DoneFn done) {
  ++stats_.reads_issued;
  auto op = std::make_shared<QuorumOp>();
  op->is_write = false;
  op->req = req;
  op->demand = demand;
  op->shard = shard_of(req->key);
  op->needed = config_.r;
  op->started = sim_.now();
  op->done = std::move(done);

  const auto& members = shard_members(op->shard);
  int live = 0;
  for (int m : members)
    if (alive(m)) ++live;
  if (live < op->needed) {
    ++stats_.quorum_failed_reads;
    if (op->done) op->done(false);
    return;
  }
  ++ops_in_flight_;
  for (int m : members)
    if (alive(m)) dispatch(op, m);
}

void KvTier::write(const proto::RequestPtr& req, sim::SimTime demand,
                   DoneFn done) {
  ++stats_.writes_issued;
  const int shard = shard_of(req->key);

  // Migration handover: the final window of a shard move refuses writes so
  // the membership swap is clean — the millibottleneck a rebalance induces
  // is partly CPU (chunks), partly this write shedding.
  const auto& mig = migrations_[static_cast<std::size_t>(shard)];
  if (mig.active && sim_.now() >= mig.end - kMigrationHandover) {
    ++stats_.migration_shed;
    if (done) done(false);
    return;
  }

  auto op = std::make_shared<QuorumOp>();
  op->is_write = true;
  op->req = req;
  op->demand = demand;
  op->shard = shard;
  op->needed = config_.w;
  op->started = sim_.now();
  op->done = std::move(done);

  const auto& members = shard_members(shard);
  int live = 0;
  for (int m : members)
    if (alive(m)) ++live;
  if (live < op->needed) {
    ++stats_.quorum_failed_writes;
    if (op->done) op->done(false);
    return;
  }

  op->version = ++clock_;
  ++ops_in_flight_;
  for (int m : members) {
    if (alive(m)) {
      dispatch(op, m);
    } else {
      ++stats_.write_replicas_missed;
      stash_hint(m, req, demand, op->version);
    }
  }
}

void KvTier::dispatch(const OpPtr& op, int rep) {
  if (!alive(rep)) {
    // The failure detector fences dead replicas before dispatch; reaching
    // here means the fence leaked — counted so chaos invariants catch it.
    ++stats_.crashed_dispatches;
    return;
  }
  ++op->sent;
  link_.deliver(sim_, [this, op, rep] {
    KvReplica& r = replica(rep);
    if (op->is_write) {
      r.execute(op->demand, [this, op, rep] {
        replica(rep).apply_write(op->req->key, op->version);
        link_.deliver(sim_, [this, op, rep] { on_reply(op, rep, 0); });
      });
    } else {
      r.execute(op->demand, [this, op, rep] {
        const std::uint64_t v = replica(rep).version_of(op->req->key);
        link_.deliver(sim_, [this, op, rep, v] { on_reply(op, rep, v); });
      });
    }
  });
}

void KvTier::on_reply(const OpPtr& op, int rep, std::uint64_t version) {
  ++op->replies;
  if (!op->is_write && !op->completed)
    op->read_versions.emplace_back(rep, version);
  if (!op->completed && op->replies >= op->needed) {
    op->completed = true;
    complete_op(op);
  }
  // Laggard replies past the quorum just arrive; the shared op keeps the
  // state alive until the last one lands.
}

void KvTier::complete_op(const OpPtr& op) {
  const sim::SimTime wait = sim_.now() - op->started;
  const double wait_ms = wait.to_millis();
  const int down = down_members_[static_cast<std::size_t>(op->shard)];

  op->req->kv_quorum_wait = op->req->kv_quorum_wait + wait;
  stats_.quorum_wait_ms_sum += wait_ms;
  if (down > 0) {
    op->req->kv_degraded_wait = op->req->kv_degraded_wait + wait;
    ++stats_.degraded_ops;
    stats_.degraded_wait_ms += wait_ms;
  }

  if (op->is_write) {
    ++stats_.quorum_writes;
    NTIER_TRACE_EVENT(trace_, sim_.now(), obs::EventKind::kKvQuorumWrite,
                      obs::Tier::kKv, op->shard, -1, op->req->id, wait_ms,
                      down);
  } else {
    ++stats_.quorum_reads;
    NTIER_TRACE_EVENT(trace_, sim_.now(), obs::EventKind::kKvQuorumRead,
                      obs::Tier::kKv, op->shard, -1, op->req->id, wait_ms,
                      down);
    issue_read_repairs(op);
  }

  --ops_in_flight_;
  if (op->done) op->done(true);
}

void KvTier::issue_read_repairs(const OpPtr& op) {
  // Among the first R repliers, bring stale replicas up to the newest
  // version seen (Dynamo-style read repair).
  std::uint64_t newest = 0;
  for (const auto& [rep, v] : op->read_versions) newest = std::max(newest, v);
  if (newest == 0) return;
  for (const auto& [rep, v] : op->read_versions) {
    if (v >= newest || !alive(rep)) continue;
    ++stats_.read_repairs;
    NTIER_TRACE_EVENT(trace_, sim_.now(), obs::EventKind::kKvReadRepair,
                      obs::Tier::kKv, op->shard, rep, op->req->id,
                      static_cast<double>(newest));
    const std::uint64_t key = op->req->key;
    const int target = rep;
    link_.deliver(sim_, [this, target, key, newest] {
      if (!alive(target)) return;
      replica(target).execute(kHintStoreDemand,
                              [this, target, key, newest] {
                                replica(target).apply_write(key, newest);
                              });
    });
  }
}

void KvTier::stash_hint(int home, const proto::RequestPtr& req,
                        sim::SimTime demand, std::uint64_t version) {
  // Dynamo hinted handoff: the next alive ring successor *outside* the
  // preference list keeps the write until `home` recovers.
  const int holder =
      ring_.next_alive(static_cast<std::uint64_t>(shard_of(req->key)),
                       shard_members(shard_of(req->key)), alive_);
  if (holder < 0) {
    ++stats_.handoff_dropped;
    return;
  }
  Hint h;
  h.key = req->key;
  h.version = version;
  h.demand = demand;
  h.home = home;
  link_.deliver(sim_, [this, holder, h] {
    if (!alive(holder)) {
      ++stats_.handoff_dropped;
      return;
    }
    replica(holder).execute(kHintStoreDemand, [this, holder, h] {
      if (alive(h.home)) {
        // The home recovered while this handoff was still in flight — its
        // recovery replay has already run, so forward the write straight to
        // it instead of stranding the hint on the holder.
        const int target = h.home;
        link_.deliver(sim_, [this, h, target, holder] {
          if (!alive(target)) {
            if (alive(holder) && replica(holder).store_hint(h))
              ++stats_.hints_created;
            else
              ++stats_.handoff_dropped;
            return;
          }
          replica(target).execute(h.demand, [this, h, target, holder] {
            replica(target).apply_write(h.key, h.version);
            ++stats_.hints_replayed;
            NTIER_TRACE_EVENT(trace_, sim_.now(),
                              obs::EventKind::kKvHandoffReplay, obs::Tier::kKv,
                              target, holder, 0, static_cast<double>(h.version));
          });
        });
        return;
      }
      if (replica(holder).store_hint(h))
        ++stats_.hints_created;
      else
        ++stats_.handoff_dropped;
    });
  });
}

void KvTier::on_replica_crashed(int r) {
  if (!alive_[static_cast<std::size_t>(r)]) return;
  alive_[static_cast<std::size_t>(r)] = false;
  replica(r).crash();
  for (int s = 0; s < config_.shards; ++s) {
    const auto& members = shard_members(s);
    if (std::find(members.begin(), members.end(), r) != members.end())
      mark_member_down(s);
  }
}

void KvTier::on_replica_recovered(int r) {
  if (alive_[static_cast<std::size_t>(r)]) return;
  alive_[static_cast<std::size_t>(r)] = true;
  replica(r).restart();
  for (int s = 0; s < config_.shards; ++s) {
    const auto& members = shard_members(s);
    if (std::find(members.begin(), members.end(), r) != members.end())
      mark_member_up(s);
  }
  // Pull hints destined for the recovered replica from every alive holder…
  for (int holder = 0; holder < num_replicas(); ++holder) {
    if (holder == r || !alive(holder)) continue;
    replay_hints(holder, r);
  }
  // …and push hints the recovered replica itself held for alive homes.
  for (int home = 0; home < num_replicas(); ++home) {
    if (home == r || !alive(home)) continue;
    replay_hints(r, home);
  }
}

void KvTier::replay_hints(int holder, int home) {
  auto hints = std::make_shared<std::vector<Hint>>(
      replica(holder).take_hints_for(home));
  if (!hints->empty()) replay_one(holder, std::move(hints), 0);
}

void KvTier::replay_one(int holder, std::shared_ptr<std::vector<Hint>> hints,
                        std::size_t i) {
  if (i >= hints->size()) return;
  const Hint h = (*hints)[i];
  if (!alive(holder)) {
    // Holder died mid-replay: the remaining hints are lost with it.
    stats_.handoff_dropped += hints->size() - i;
    return;
  }
  replica(holder).execute(kHintStoreDemand, [this, holder, h, hints,
                                                      i] {
    link_.deliver(sim_, [this, holder, h, hints, i] {
      if (!alive(h.home)) {
        // Home crashed again before this hint landed: re-stash it on the
        // holder so a later recovery replays it (or count the drop when the
        // holder's queue is full or the holder itself died).
        if (!alive(holder) || !replica(holder).store_hint(h))
          ++stats_.handoff_dropped;
      } else {
        const int home = h.home;
        replica(home).execute(h.demand, [this, h, home, holder] {
          replica(home).apply_write(h.key, h.version);
          ++stats_.hints_replayed;
          NTIER_TRACE_EVENT(trace_, sim_.now(),
                            obs::EventKind::kKvHandoffReplay, obs::Tier::kKv,
                            home, holder, 0, static_cast<double>(h.version));
        });
      }
      sim_.after(kHintReplayGap, [this, holder, hints, i] {
        replay_one(holder, hints, i + 1);
      });
    });
  });
}

void KvTier::begin_migration(int shard, sim::SimTime duration,
                             double intensity) {
  auto& mig = migrations_[static_cast<std::size_t>(shard)];
  if (mig.active) return;
  const auto& members = shard_members(shard);
  int src = -1;
  for (int m : members)
    if (alive(m)) { src = m; break; }
  const int dest =
      ring_.next_alive(static_cast<std::uint64_t>(shard), members, alive_);
  if (src < 0 || dest < 0) {
    ++stats_.migrations_aborted;
    NTIER_TRACE_EVENT(trace_, sim_.now(), obs::EventKind::kKvMigration,
                      obs::Tier::kKv, shard, dest, 0, 0.0, -2);
    return;
  }
  mig.active = true;
  mig.src = src;
  mig.dest = dest;
  mig.end = sim_.now() + duration;
  ++stats_.migrations_started;
  NTIER_TRACE_EVENT(trace_, sim_.now(), obs::EventKind::kKvMigration,
                    obs::Tier::kKv, shard, dest, 0, intensity, +1);

  mig.chunk_demand = sim::SimTime::from_seconds(
      kMigrationChunkDemand.to_seconds() * intensity);
  migration_chunk(shard);
  sim_.at(mig.end, [this, shard] { complete_migration(shard); });
}

void KvTier::migration_chunk(int shard) {
  auto& mig = migrations_[static_cast<std::size_t>(shard)];
  if (!mig.active || sim_.now() >= mig.end) return;
  if (!alive(mig.src) || !alive(mig.dest)) {
    // A crash on either end aborts the move; the old membership stands.
    mig.active = false;
    ++stats_.migrations_aborted;
    NTIER_TRACE_EVENT(trace_, sim_.now(), obs::EventKind::kKvMigration,
                      obs::Tier::kKv, shard, mig.dest, 0, 0.0, -2);
    return;
  }
  ++stats_.migration_chunks;
  NTIER_TRACE_EVENT(trace_, sim_.now(), obs::EventKind::kKvMigration,
                    obs::Tier::kKv, shard, mig.dest, 0,
                    static_cast<double>(kMigrationBytesPerChunk), 0);
  replica(mig.src).execute(mig.chunk_demand, [] {});
  const int dest = mig.dest;
  replica(dest).execute(mig.chunk_demand, [this, dest] {
    if (alive(dest)) replica(dest).dirty_bytes(kMigrationBytesPerChunk);
  });
  sim_.after(kMigrationChunkInterval,
             [this, shard] { migration_chunk(shard); });
}

void KvTier::complete_migration(int shard) {
  auto& mig = migrations_[static_cast<std::size_t>(shard)];
  if (!mig.active) return;
  mig.active = false;
  if (!alive(mig.dest)) {
    ++stats_.migrations_aborted;
    NTIER_TRACE_EVENT(trace_, sim_.now(), obs::EventKind::kKvMigration,
                      obs::Tier::kKv, shard, mig.dest, 0, 0.0, -2);
    return;
  }
  auto& members = members_[static_cast<std::size_t>(shard)];
  const auto it = std::find(members.begin(), members.end(), mig.src);
  if (it != members.end()) *it = mig.dest;
  recount_shard(shard);
  ++stats_.migrations_completed;
  NTIER_TRACE_EVENT(trace_, sim_.now(), obs::EventKind::kKvMigration,
                    obs::Tier::kKv, shard, mig.dest, 0, 0.0, -1);
}

void KvTier::mark_member_down(int shard) {
  auto& down = down_members_[static_cast<std::size_t>(shard)];
  if (down++ == 0) degraded_since_[static_cast<std::size_t>(shard)] = sim_.now();
}

void KvTier::mark_member_up(int shard) {
  auto& down = down_members_[static_cast<std::size_t>(shard)];
  if (down > 0 && --down == 0) {
    degraded_ms_[static_cast<std::size_t>(shard)] +=
        (sim_.now() - degraded_since_[static_cast<std::size_t>(shard)])
            .to_millis();
  }
}

void KvTier::recount_shard(int shard) {
  // Membership changed (migration swap): recompute the down-count and keep
  // the degraded interval consistent with it.
  const auto& members = shard_members(shard);
  int down = 0;
  for (int m : members)
    if (!alive(m)) ++down;
  auto& cur = down_members_[static_cast<std::size_t>(shard)];
  if (cur > 0 && down == 0) {
    degraded_ms_[static_cast<std::size_t>(shard)] +=
        (sim_.now() - degraded_since_[static_cast<std::size_t>(shard)])
            .to_millis();
  } else if (cur == 0 && down > 0) {
    degraded_since_[static_cast<std::size_t>(shard)] = sim_.now();
  }
  cur = down;
}

void KvTier::finish(sim::SimTime now) {
  for (int s = 0; s < config_.shards; ++s) {
    if (down_members_[static_cast<std::size_t>(s)] > 0) {
      degraded_ms_[static_cast<std::size_t>(s)] +=
          (now - degraded_since_[static_cast<std::size_t>(s)]).to_millis();
      degraded_since_[static_cast<std::size_t>(s)] = now;
    }
  }
}

}  // namespace ntier::kv
