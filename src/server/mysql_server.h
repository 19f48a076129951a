#pragma once

#include <cstdint>

#include "metrics/time_series.h"
#include "os/node.h"
#include "server/route.h"
#include "sim/callback.h"
#include "sim/ring.h"
#include "sim/simulation.h"
#include "sim/slot_table.h"

namespace ntier::server {

/// Server-side concurrency cap (max_connections is far above what 4
/// Tomcats × 48-connection pools can open; kept for completeness).
inline constexpr int kMySqlMaxConnections = 400;

struct MySqlConfig {
  /// Dirty bytes written per query (binlog / InnoDB log), fuelling
  /// DB-side millibottleneck experiments. Zero in the paper's setup, where
  /// the flush problem lives on the Tomcat tier.
  std::uint32_t log_bytes_per_query = 0;
};

/// Database tier. The paper's MySQL is never the bottleneck (Fig. 2(b): no
/// queue peaks): it executes query CPU demands — cheap when the 10 MB query
/// cache hits — and stays lightly loaded. Concurrency beyond the connection
/// cap queues FIFO.
class MySqlServer final : public RouteBackend {
 public:
  MySqlServer(sim::Simulation& simu, os::Node& node, MySqlConfig config = {});

  MySqlServer(const MySqlServer&) = delete;
  MySqlServer& operator=(const MySqlServer&) = delete;

  /// Execute one query of the given CPU demand; `done` fires on completion.
  void execute(sim::SimTime demand, sim::Callback<void()> done);

  /// Answer a load probe (probe::ProbePool): a tiny CPU job that reports
  /// queries-in-flight at answer time plus the recent query-latency EWMA.
  void probe_load(probe::ProbePool::ReplyFn done) override;

  /// Queries resident now, as probes and replies report it.
  double reported_rif() const override { return resident_; }
  /// Recent whole-query latency (execute → done), EWMA in ms.
  double reported_latency_ms() const override { return latency_ewma_ms_; }

  /// Queries resident (queued + executing) — the MySQL tier queue series.
  int resident() const { return resident_; }
  /// Record resident() into `g` on every change (null = off; the caller
  /// owns and finishes the series).
  void set_queue_series(metrics::GaugeSeries* g) { queue_series_ = g; }

  std::uint64_t queries_served() const { return served_; }

 private:
  struct Query {
    sim::SimTime demand;
    sim::SimTime arrived;  // execute() time: the EWMA covers queueing too
    sim::Callback<void()> done;
  };
  void start(Query q);
  void on_query_done(sim::SlotTable<Query>::Handle h);

  sim::Simulation& sim_;
  os::Node& node_;
  MySqlConfig config_;
  int executing_ = 0;
  int resident_ = 0;
  std::uint64_t served_ = 0;
  double latency_ewma_ms_ = 0.0;
  sim::Ring<Query> waiting_;
  sim::SlotTable<Query> running_;
  /// Load probes waiting on their CPU job; the job captures only the handle.
  sim::SlotTable<probe::ProbePool::ReplyFn> load_probes_;
  metrics::GaugeSeries* queue_series_ = nullptr;
};

}  // namespace ntier::server
