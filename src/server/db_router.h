#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "cache/tier.h"
#include "control/overload.h"
#include "kv/tier.h"
#include "proto/request.h"
#include "server/mysql_server.h"
#include "server/route.h"
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
  DbRouter(sim::Simulation& simu, const std::vector<MySqlServer*>& replicas,
           DbRouterConfig config = {});
  /// KV-backed router: queries route by request key into the shared quorum
  /// tier instead of through the replica balancer. There is no route (no
  /// balancer, probe pool or per-replica pools) in this mode; overload
  /// deadline shedding still applies at the router.
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

  /// The hop to the MySQL replicas; null in the KV and cache modes.
  Route* route() { return route_ ? &*route_ : nullptr; }
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
  kv::KvTier* kv_ = nullptr;  // non-null iff constructed in kKv mode
  cache::CacheTier* cache_ = nullptr;  // non-null iff cache-fronted
  int cache_node_ = 0;  // this router's pinned cache server
  DbRouterConfig config_;
  std::optional<Route> route_;  // MySQL mode only
  sim::SlotTable<Query> queries_;
  std::uint64_t errors_ = 0;
  std::uint64_t routed_ = 0;
  control::OverloadStats ostats_;
};

}  // namespace ntier::server
