#include "server/mysql_server.h"

namespace ntier::server {

MySqlServer::MySqlServer(sim::Simulation& simu, os::Node& node,
                         MySqlConfig config)
    : sim_(simu), node_(node), config_(config) {}

void MySqlServer::execute(sim::SimTime demand, sim::Callback<void()> done) {
  ++resident_;
  if (queue_series_) queue_series_->set(sim_.now(), resident_);
  Query q{demand, sim_.now(), std::move(done)};
  if (executing_ < kMySqlMaxConnections) {
    start(std::move(q));
  } else {
    waiting_.push_back(std::move(q));
  }
}

void MySqlServer::probe_load(probe::ProbePool::ReplyFn done) {
  const auto h = load_probes_.insert(std::move(done));
  node_.cpu().submit(kProbeDemand, [this, h] {
    load_probes_.take(h)(true, static_cast<double>(resident_),
                         latency_ewma_ms_);
  });
}

void MySqlServer::start(Query q) {
  ++executing_;
  const sim::SimTime demand = q.demand;
  const auto h = running_.insert(std::move(q));
  node_.cpu().submit(demand, [this, h] { on_query_done(h); });
}

void MySqlServer::on_query_done(sim::SlotTable<Query>::Handle h) {
  const Query q = running_.take(h);
  --executing_;
  --resident_;
  ++served_;
  if (config_.log_bytes_per_query > 0)
    node_.page_cache().write_dirty(config_.log_bytes_per_query);
  if (queue_series_) queue_series_->set(sim_.now(), resident_);
  if (!waiting_.empty() && executing_ < kMySqlMaxConnections) {
    start(waiting_.pop_front());
  }
  // Fold this query's whole latency (queueing included) into the EWMA the
  // load probes report, then hand the result back.
  const double lat_ms = (sim_.now() - q.arrived).to_seconds() * 1e3;
  constexpr double kAlpha = 0.2;
  latency_ewma_ms_ = latency_ewma_ms_ == 0.0
                         ? lat_ms
                         : (1 - kAlpha) * latency_ewma_ms_ + kAlpha * lat_ms;
  if (q.done) q.done();
}

}  // namespace ntier::server
