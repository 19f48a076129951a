#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "cache/tier.h"
#include "control/overload.h"
#include "kv/tier.h"
#include "lb/load_balancer.h"
#include "net/link.h"
#include "probe/probe_pool.h"
#include "proto/request.h"
#include "server/mysql_server.h"
#include "sim/callback.h"
#include "sim/simulation.h"
#include "sim/slot_table.h"

namespace ntier::server {

/// Which data tier sits behind the servlet's DB access path.
enum class DbTier : std::uint8_t {
  kMysql,  // single-primary MySQL replicas behind the replica balancer
  kKv,     // replicated sharded KV tier, routed by request key
};

const char* to_string(DbTier t);
/// "mysql" / "kv" → DbTier; false on anything else.
bool db_tier_from_string(const std::string& s, DbTier* out);

/// Configuration of the servlet-side database access path.
struct DbRouterConfig {
  /// Connections per (Tomcat, replica) pair. The paper's single-MySQL
  /// setup has 48 connections per application server (Table III).
  std::size_t pool_per_replica = 48;
  /// Replica-selection policy. With one replica it is irrelevant; with
  /// several, this is where the paper's §VIII advice ("other load balancers
  /// in N-tier systems can take advantage of our remedies") applies.
  lb::PolicyKind policy = lb::PolicyKind::kCurrentLoad;
  /// Pool mechanism. The classic servlet pool blocks on a condition
  /// variable (kQueueing); kNonBlocking turns the router millibottleneck-
  /// aware, skipping a stalled replica instead of queueing behind it.
  lb::MechanismKind mechanism = lb::MechanismKind::kQueueing;
  lb::BalancerConfig balancer;  // busy_recovery etc. for kNonBlocking
  sim::SimTime link_latency = sim::SimTime::micros(100);
  /// Prequal-style load probing of the replicas, consumed only when
  /// `policy` is probe-aware (kPowerOfD / kPrequal).
  probe::ProbeConfig probe;
  /// End-to-end overload control: with `deadlines` on, queries whose
  /// request deadline has already passed return a SQL error immediately
  /// instead of occupying a pooled connection.
  control::OverloadConfig overload;
};

/// The Tomcat-to-MySQL connection layer: a connection pool per replica and
/// a replica-selection balancer reusing the exact policy/mechanism machinery
/// studied at the web tier. With `kQueueing` + a cumulative policy it
/// reproduces the stock behaviour (requests queue behind a stalled
/// replica); with `current_load` + `kNonBlocking` it applies both remedies
/// to the database tier.
class DbRouter {
 public:
  DbRouter(sim::Simulation& simu, std::vector<MySqlServer*> replicas,
           DbRouterConfig config = {});
  /// KV-backed router: queries route by request key into the shared quorum
  /// tier instead of through the replica balancer. The balancer, probe pool
  /// and per-replica pools do not exist in this mode (has_balancer() is
  /// false); overload deadline shedding still applies at the router.
  DbRouter(sim::Simulation& simu, kv::KvTier* tier, DbRouterConfig config = {});
  /// Cache-fronted KV router: reads go through the look-aside cache tier at
  /// `cache_node` (this Tomcat's pinned cache server) and fall through to
  /// the KV quorum on a miss; writes forward to the quorum and broadcast
  /// invalidations on commit. Everything else matches kKv mode.
  DbRouter(sim::Simulation& simu, cache::CacheTier* cache, int cache_node,
           DbRouterConfig config = {});

  DbRouter(const DbRouter&) = delete;
  DbRouter& operator=(const DbRouter&) = delete;

  /// One DB round trip: select a replica, hold a pooled connection for the
  /// duration, run `demand` on the replica, return. `done` always fires;
  /// unroutable queries (every replica sidelined under kNonBlocking) count
  /// as errors and complete immediately — the servlet surfaces a SQL error
  /// rather than hanging. `is_write` routes the trip through the KV write
  /// quorum (ignored by the MySQL tier, which models every trip the same).
  void query(const proto::RequestRef& req, sim::SimTime demand, bool is_write,
             sim::Callback<void()> done);
  /// Read round trip (kept for call sites predating the KV tier).
  void query(const proto::RequestRef& req, sim::SimTime demand,
             sim::Callback<void()> done) {
    query(req, demand, /*is_write=*/false, std::move(done));
  }

  DbTier tier() const { return kv_ ? DbTier::kKv : DbTier::kMysql; }
  bool has_balancer() const { return balancer_ != nullptr; }
  kv::KvTier* kv_tier() { return kv_; }
  /// Null unless constructed in cache-fronted mode.
  cache::CacheTier* cache_tier() { return cache_; }
  int cache_node() const { return cache_node_; }
  int num_replicas() const {
    return kv_ ? kv_->num_replicas() : balancer_->num_workers();
  }
  MySqlServer& replica(int i) { return *replicas_[static_cast<std::size_t>(i)]; }
  lb::LoadBalancer& balancer() { return *balancer_; }
  /// Null unless DbRouterConfig::probe.enabled.
  const probe::ProbePool* probe_pool() const { return probe_pool_.get(); }
  std::uint64_t errors() const { return errors_; }
  std::uint64_t queries_routed() const { return routed_; }
  /// Expired-query shed accounting (see control::OverloadStats).
  const control::OverloadStats& overload_stats() const { return ostats_; }

 private:
  /// One in-flight query, from routing to the servlet's continuation; the
  /// hops in between capture only its handle.
  struct Query {
    proto::RequestRef req;
    sim::SimTime demand;
    int replica = -1;
    sim::Callback<void()> done;
  };
  using QueryHandle = sim::SlotTable<Query>::Handle;
  /// The replica balancer answered: forward to replica `idx` (or fail).
  void on_assigned(QueryHandle h, int idx);
  /// The replica's answer is back at the router.
  void on_replica_reply(QueryHandle h);
  /// The KV / cache operation completed.
  void on_kv_done(QueryHandle h, bool ok);

  sim::Simulation& sim_;
  std::vector<MySqlServer*> replicas_;
  kv::KvTier* kv_ = nullptr;  // non-null iff constructed in kKv mode
  cache::CacheTier* cache_ = nullptr;  // non-null iff cache-fronted
  int cache_node_ = 0;  // this router's pinned cache server
  DbRouterConfig config_;
  net::Link link_;
  std::unique_ptr<lb::LoadBalancer> balancer_;
  std::unique_ptr<probe::ProbePool> probe_pool_;
  sim::SlotTable<Query> queries_;
  /// Load probes on their round trip to a replica and back.
  sim::SlotTable<probe::ProbePool::Trip> load_trips_;
  std::uint64_t errors_ = 0;
  std::uint64_t routed_ = 0;
  control::OverloadStats ostats_;
};

}  // namespace ntier::server
