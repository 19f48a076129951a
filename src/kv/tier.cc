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

KvTier::OpHandle KvTier::open_op(bool is_write, const proto::RequestRef& req,
                                 sim::SimTime demand, int shard, int needed,
                                 DoneFn done) {
  QuorumOp op;
  op.is_write = is_write;
  op.req = req;
  op.demand = demand;
  op.shard = shard;
  op.needed = needed;
  op.started = sim_.now();
  op.done = std::move(done);
  const OpHandle h = ops_.insert(std::move(op));
  const std::size_t slots = ops_.slot_count();
  const std::size_t reps = replicas_.size();
  const auto n = static_cast<std::size_t>(config_.n);
  if (read_version_.size() < slots * reps) read_version_.resize(slots * reps);
  if (reply_log_.size() < slots * n) reply_log_.resize(slots * n);
  ++ops_in_flight_;
  return h;
}

void KvTier::read(const proto::RequestRef& req, sim::SimTime demand,
                  DoneFn done) {
  ++stats_.reads_issued;
  const int shard = shard_of(req->key);
  const auto& members = shard_members(shard);
  int live = 0;
  for (int m : members)
    if (alive(m)) ++live;
  if (live < config_.r) {
    ++stats_.quorum_failed_reads;
    if (done) done(false);
    return;
  }
  const OpHandle h =
      open_op(/*is_write=*/false, req, demand, shard, config_.r, std::move(done));
  for (int m : members)
    if (alive(m)) dispatch(h, m);
}

void KvTier::write(const proto::RequestRef& req, sim::SimTime demand,
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

  const auto& members = shard_members(shard);
  int live = 0;
  for (int m : members)
    if (alive(m)) ++live;
  if (live < config_.w) {
    ++stats_.quorum_failed_writes;
    if (done) done(false);
    return;
  }

  const std::uint64_t version = ++clock_;
  const OpHandle h =
      open_op(/*is_write=*/true, req, demand, shard, config_.w, std::move(done));
  ops_[h].version = version;
  for (int m : members) {
    if (alive(m)) {
      dispatch(h, m);
    } else {
      ++stats_.write_replicas_missed;
      stash_hint(m, req, demand, version);
    }
  }
}

void KvTier::dispatch(OpHandle h, int rep) {
  if (!alive(rep)) {
    // The failure detector fences dead replicas before dispatch; reaching
    // here means the fence leaked — counted so chaos invariants catch it.
    ++stats_.crashed_dispatches;
    return;
  }
  ++ops_[h].sent;
  link_.deliver(sim_, [this, h, rep] {
    replica(rep).execute(ops_[h].demand, [this, h, rep] {
      const QuorumOp& op = ops_[h];
      if (op.is_write)
        replica(rep).apply_write(op.req->key, op.version);
      else
        read_version_[ops_.slot_of(h) * replicas_.size() +
                      static_cast<std::size_t>(rep)] =
            replica(rep).version_of(op.req->key);
      link_.deliver(sim_, [this, h, rep] { on_reply(h, rep); });
    });
  });
}

void KvTier::on_reply(OpHandle h, int rep) {
  QuorumOp& op = ops_[h];
  ++op.replies;
  if (!op.is_write && !op.completed) {
    const std::size_t slot = ops_.slot_of(h);
    reply_log_[slot * static_cast<std::size_t>(config_.n) +
               static_cast<std::size_t>(op.logged++)] = {
        rep, read_version_[slot * replicas_.size() +
                           static_cast<std::size_t>(rep)]};
  }
  if (!op.completed && op.replies >= op.needed) {
    complete_op(h);
    return;
  }
  // Laggard replies past the quorum just arrive; the op is released with
  // the last one.
  if (op.completed && op.replies == op.sent) ops_.erase(h);
}

void KvTier::complete_op(OpHandle h) {
  QuorumOp& op = ops_[h];
  op.completed = true;
  const sim::SimTime wait = sim_.now() - op.started;
  const double wait_ms = wait.to_millis();
  const int down = down_members_[static_cast<std::size_t>(op.shard)];

  op.req->kv_quorum_wait = op.req->kv_quorum_wait + wait;
  stats_.quorum_wait_ms_sum += wait_ms;
  if (down > 0) {
    op.req->kv_degraded_wait = op.req->kv_degraded_wait + wait;
    ++stats_.degraded_ops;
    stats_.degraded_wait_ms += wait_ms;
  }

  if (op.is_write) {
    ++stats_.quorum_writes;
    NTIER_TRACE_EVENT(trace_, sim_.now(), obs::EventKind::kKvQuorumWrite,
                      obs::Tier::kKv, op.shard, -1, op.req->id, wait_ms,
                      down);
  } else {
    ++stats_.quorum_reads;
    NTIER_TRACE_EVENT(trace_, sim_.now(), obs::EventKind::kKvQuorumRead,
                      obs::Tier::kKv, op.shard, -1, op.req->id, wait_ms,
                      down);
    issue_read_repairs(op, h);
  }

  --ops_in_flight_;
  // The continuation may start new ops (and grow `ops_`), so it runs from a
  // local after the record is released or left for its laggards.
  const DoneFn done = std::move(op.done);
  if (op.replies == op.sent) ops_.erase(h);
  if (done) done(true);
}

void KvTier::issue_read_repairs(const QuorumOp& op, OpHandle h) {
  // Among the first R repliers, bring stale replicas up to the newest
  // version seen (Dynamo-style read repair).
  const auto* log =
      &reply_log_[ops_.slot_of(h) * static_cast<std::size_t>(config_.n)];
  const auto* log_end = log + op.logged;
  std::uint64_t newest = 0;
  for (const auto* e = log; e != log_end; ++e) newest = std::max(newest, e->second);
  if (newest == 0) return;
  for (const auto* e = log; e != log_end; ++e) {
    const auto [rep, v] = *e;
    if (v >= newest || !alive(rep)) continue;
    ++stats_.read_repairs;
    NTIER_TRACE_EVENT(trace_, sim_.now(), obs::EventKind::kKvReadRepair,
                      obs::Tier::kKv, op.shard, rep, op.req->id,
                      static_cast<double>(newest));
    const auto rh = repairs_.insert(Repair{rep, op.req->key, newest});
    link_.deliver(sim_, [this, rh] {
      if (!alive(repairs_[rh].target)) {
        repairs_.erase(rh);
        return;
      }
      replica(repairs_[rh].target).execute(kHintStoreDemand, [this, rh] {
        const Repair r = repairs_.take(rh);
        replica(r.target).apply_write(r.key, r.version);
      });
    });
  }
}

void KvTier::stash_hint(int home, const proto::RequestRef& req,
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
  const HandoffHandle hh = handoffs_.insert(Handoff{h, holder});
  link_.deliver(sim_, [this, hh] {
    if (!alive(handoffs_[hh].holder)) {
      handoffs_.erase(hh);
      ++stats_.handoff_dropped;
      return;
    }
    replica(handoffs_[hh].holder).execute(kHintStoreDemand, [this, hh] {
      const Handoff x = handoffs_[hh];
      if (alive(x.hint.home)) {
        // The home recovered while this handoff was still in flight — its
        // recovery replay has already run, so forward the write straight to
        // it instead of stranding the hint on the holder.
        link_.deliver(sim_, [this, hh] {
          const Handoff y = handoffs_[hh];
          const int target = y.hint.home;
          if (!alive(target)) {
            handoffs_.erase(hh);
            if (alive(y.holder) && replica(y.holder).store_hint(y.hint))
              ++stats_.hints_created;
            else
              ++stats_.handoff_dropped;
            return;
          }
          replica(target).execute(y.hint.demand, [this, hh] {
            const Handoff z = handoffs_.take(hh);
            replica(z.hint.home).apply_write(z.hint.key, z.hint.version);
            ++stats_.hints_replayed;
            NTIER_TRACE_EVENT(trace_, sim_.now(),
                              obs::EventKind::kKvHandoffReplay, obs::Tier::kKv,
                              z.hint.home, z.holder, 0,
                              static_cast<double>(z.hint.version));
          });
        });
        return;
      }
      handoffs_.erase(hh);
      if (replica(x.holder).store_hint(x.hint))
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
  std::vector<Hint> hints = replica(holder).take_hints_for(home);
  if (hints.empty()) return;
  replay_one(replays_.insert(Replay{holder, std::move(hints), /*pending=*/1}),
             0);
}

void KvTier::release_replay(ReplayHandle rh) {
  if (--replays_[rh].pending == 0) replays_.erase(rh);
}

void KvTier::replay_one(ReplayHandle rh, std::size_t i) {
  const Replay& rp = replays_[rh];
  if (i >= rp.hints.size()) {
    release_replay(rh);
    return;
  }
  if (!alive(rp.holder)) {
    // Holder died mid-replay: the remaining hints are lost with it.
    stats_.handoff_dropped += rp.hints.size() - i;
    release_replay(rh);
    return;
  }
  replica(rp.holder).execute(kHintStoreDemand, [this, rh, i] {
    link_.deliver(sim_, [this, rh, i] {
      Replay& r = replays_[rh];
      const int holder = r.holder;
      const Hint h = r.hints[i];
      if (!alive(h.home)) {
        // Home crashed again before this hint landed: re-stash it on the
        // holder so a later recovery replays it (or count the drop when the
        // holder's queue is full or the holder itself died).
        if (!alive(holder) || !replica(holder).store_hint(h))
          ++stats_.handoff_dropped;
      } else {
        ++r.pending;
        replica(h.home).execute(h.demand, [this, rh, i] {
          const Replay& done = replays_[rh];
          const Hint& applied = done.hints[i];
          replica(applied.home).apply_write(applied.key, applied.version);
          ++stats_.hints_replayed;
          NTIER_TRACE_EVENT(trace_, sim_.now(),
                            obs::EventKind::kKvHandoffReplay, obs::Tier::kKv,
                            applied.home, done.holder, 0,
                            static_cast<double>(applied.version));
          release_replay(rh);
        });
      }
      sim_.after(kHintReplayGap, [this, rh, i] { replay_one(rh, i + 1); });
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
