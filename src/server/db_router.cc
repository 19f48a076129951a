#include "server/db_router.h"

#include <stdexcept>

namespace ntier::server {

const char* to_string(DbTier t) {
  switch (t) {
    case DbTier::kMysql: return "mysql";
    case DbTier::kKv: return "kv";
  }
  return "?";
}

bool db_tier_from_string(const std::string& s, DbTier* out) {
  if (s == "mysql") { *out = DbTier::kMysql; return true; }
  if (s == "kv") { *out = DbTier::kKv; return true; }
  return false;
}

DbRouter::DbRouter(sim::Simulation& simu, kv::KvTier* tier,
                   DbRouterConfig config)
    : sim_(simu), kv_(tier), config_(config) {
  if (!kv_) throw std::invalid_argument("DbRouter: null kv tier");
}

DbRouter::DbRouter(sim::Simulation& simu, cache::CacheTier* cache,
                   int cache_node, DbRouterConfig config)
    : sim_(simu),
      kv_(cache ? &cache->backing() : nullptr),
      cache_(cache),
      cache_node_(cache_node),
      config_(config) {
  if (!cache_) throw std::invalid_argument("DbRouter: null cache tier");
  if (cache_node_ < 0 || cache_node_ >= cache_->num_nodes())
    throw std::invalid_argument("DbRouter: cache node out of range");
}

DbRouter::DbRouter(sim::Simulation& simu,
                   const std::vector<MySqlServer*>& replicas,
                   DbRouterConfig config)
    : sim_(simu), config_(config) {
  if (replicas.empty()) throw std::invalid_argument("DbRouter: no replicas");
  lb::BalancerConfig bc = config_.balancer;
  bc.endpoint_pool_size = config_.pool_per_replica;
  route_.emplace(simu,
                 std::vector<RouteBackend*>(replicas.begin(), replicas.end()),
                 lb::make_policy(config_.policy),
                 lb::make_acquirer(config_.mechanism, bc.blocking), bc,
                 lb::ProberConfig{}, config_.probe);
}

void DbRouter::query(const proto::RequestRef& req, sim::SimTime demand,
                     bool is_write, sim::Callback<void()> done) {
  if (config_.overload.deadlines && req->deadline != sim::SimTime::zero() &&
      sim_.now() > req->deadline) {
    // The request can no longer finish in time; executing this query (and
    // holding a pooled connection through a possibly-stalled replica) would
    // be pure wasted work. Surface a fast SQL error instead.
    ostats_.shed(*req, proto::ShedReason::kDeadlineExpired, demand.to_millis());
    done();
    return;
  }
  const QueryHandle h = queries_.insert(Query{req, demand, -1, std::move(done)});
  if (kv_) {
    // Key-routed quorum operation (cache-fronted when a cache tier was
    // attached). A failed quorum surfaces exactly like a SQL error: counted
    // here, and the servlet's round trip completes so request conservation
    // is untouched.
    ++routed_;
    auto finish = [this, h](bool ok) { on_kv_done(h, ok); };
    if (cache_) {
      if (is_write)
        cache_->write(cache_node_, req, demand, finish);
      else
        cache_->read(cache_node_, req, demand, finish);
    } else if (is_write) {
      kv_->write(req, demand, finish);
    } else {
      kv_->read(req, demand, finish);
    }
    return;
  }
  route_->balancer().assign(req, [this, h](int idx) { on_assigned(h, idx); });
}

void DbRouter::on_kv_done(QueryHandle h, bool ok) {
  if (!ok) ++errors_;
  const auto done = queries_.take(h).done;
  done();
}

void DbRouter::on_assigned(QueryHandle h, int idx) {
  if (idx < 0) {
    ++errors_;  // no replica reachable: the servlet sees a SQL error
    const auto done = queries_.take(h).done;
    done();
    return;
  }
  ++routed_;
  queries_[h].replica = idx;
  route_->link().deliver(sim_, [this, h] {
    const Query& q = queries_[h];
    // The route was built over the replicas, so every backend is one.
    auto& replica = static_cast<MySqlServer&>(route_->backend(q.replica));
    replica.execute(q.demand, [this, h] {
      route_->link().deliver(sim_, [this, h] { on_replica_reply(h); });
    });
  });
}

void DbRouter::on_replica_reply(QueryHandle h) {
  const Query q = queries_.take(h);
  route_->on_reply(q.replica, q.req);
  q.done();
}

}  // namespace ntier::server
