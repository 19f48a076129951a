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
    : sim_(simu), kv_(tier), config_(config), link_(config.link_latency) {
  if (!kv_) throw std::invalid_argument("DbRouter: null kv tier");
}

DbRouter::DbRouter(sim::Simulation& simu, cache::CacheTier* cache,
                   int cache_node, DbRouterConfig config)
    : sim_(simu),
      kv_(cache ? &cache->backing() : nullptr),
      cache_(cache),
      cache_node_(cache_node),
      config_(config),
      link_(config.link_latency) {
  if (!cache_) throw std::invalid_argument("DbRouter: null cache tier");
  if (cache_node_ < 0 || cache_node_ >= cache_->num_nodes())
    throw std::invalid_argument("DbRouter: cache node out of range");
}

DbRouter::DbRouter(sim::Simulation& simu, std::vector<MySqlServer*> replicas,
                   DbRouterConfig config)
    : sim_(simu),
      replicas_(std::move(replicas)),
      config_(config),
      link_(config.link_latency) {
  if (replicas_.empty()) throw std::invalid_argument("DbRouter: no replicas");
  lb::BalancerConfig bc = config_.balancer;
  bc.endpoint_pool_size = config_.pool_per_replica;
  balancer_ = std::make_unique<lb::LoadBalancer>(
      simu, static_cast<int>(replicas_.size()), lb::make_policy(config_.policy),
      lb::make_acquirer(config_.mechanism, bc.blocking), bc);
  if (config_.probe.enabled) {
    probe_pool_ = std::make_unique<probe::ProbePool>(
        simu, static_cast<int>(replicas_.size()),
        [this](int w, probe::ProbePool::ReplyFn done) {
          const auto h = load_trips_.insert({std::move(done), w});
          link_.deliver(sim_, [this, h] {
            replicas_[static_cast<std::size_t>(load_trips_[h].worker)]
                ->probe_load([this, h](bool ok, double rif, double lat_ms) {
                  probe::ProbePool::Trip& t = load_trips_[h];
                  t.ok = ok;
                  t.rif = rif;
                  t.latency_ms = lat_ms;
                  link_.deliver(sim_, [this, h] {
                    const auto back = load_trips_.take(h);
                    back.done(back.ok, back.rif, back.latency_ms);
                  });
                });
          });
        },
        config_.probe);
    probe_pool_->set_local_load([this](int w) {
      return static_cast<double>(balancer_->record(w).outstanding);
    });
    balancer_->attach_probes(probe_pool_.get());
  }
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
  balancer_->assign(req, [this, h](int idx) { on_assigned(h, idx); });
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
  link_.deliver(sim_, [this, h] {
    const Query& q = queries_[h];
    replicas_[static_cast<std::size_t>(q.replica)]->execute(
        q.demand, [this, h] {
          link_.deliver(sim_, [this, h] { on_replica_reply(h); });
        });
  });
}

void DbRouter::on_replica_reply(QueryHandle h) {
  const Query q = queries_.take(h);
  balancer_->on_response(q.replica, q.req);
  if (probe_pool_) {
    auto* m = replicas_[static_cast<std::size_t>(q.replica)];
    probe_pool_->observe(q.replica, m->resident(), m->latency_ewma_ms());
  }
  q.done();
}

}  // namespace ntier::server
