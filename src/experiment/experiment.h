#pragma once

#include <memory>
#include <optional>
#include <span>
#include <utility>
#include <vector>

#include "cache/tier.h"
#include "experiment/config.h"
#include "kv/replica.h"
#include "kv/tier.h"
#include "metrics/request_log.h"
#include "metrics/sampler.h"
#include "millib/injector.h"
#include "millib/online_detector.h"
#include "obs/trace.h"
#include "os/node.h"
#include "recovery/orchestrator.h"
#include "server/apache_server.h"
#include "server/db_router.h"
#include "server/mysql_server.h"
#include "server/tomcat_server.h"
#include "sim/simulation.h"
#include "workload/client.h"
#include "workload/rubbos.h"
#include "workload/trace.h"

namespace ntier::experiment {

class ChaosController;

/// Builds the full testbed described by an ExperimentConfig — client
/// population, Apache tier (each with its own balancer), Tomcat tier (each
/// with its own DB router), MySQL replica(s), per-node OS models with
/// pdflush or synthetic stall injectors — runs it, and exposes every
/// collected series. One Experiment = one row/curve of the paper.
class Experiment {
 public:
  explicit Experiment(ExperimentConfig config);
  ~Experiment();

  Experiment(const Experiment&) = delete;
  Experiment& operator=(const Experiment&) = delete;

  /// Run for config.duration of simulated time (call once).
  void run();

  // -- components --------------------------------------------------------------
  const ExperimentConfig& config() const { return config_; }
  sim::Simulation& simulation() { return sim_; }
  const metrics::RequestLog& log() const { return log_; }
  const workload::ClientPopulation& clients() const { return *clients_; }
  /// Mutable access for pre-run instrumentation (issue hooks etc.).
  workload::ClientPopulation& mutable_clients() { return *clients_; }
  /// The open-loop trace replayer; null unless config.replay_trace is set.
  const workload::TraceReplayer* replayer() const { return replayer_.get(); }
  workload::TraceReplayer* replayer() { return replayer_.get(); }

  int num_apaches() const { return static_cast<int>(apaches_.size()); }
  int num_tomcats() const { return static_cast<int>(tomcats_.size()); }
  int num_mysql() const { return static_cast<int>(mysqls_.size()); }
  int num_kv_replicas() const { return static_cast<int>(kv_replicas_.size()); }
  server::ApacheServer& apache(int i) { return *apaches_[static_cast<std::size_t>(i)]; }
  server::TomcatServer& tomcat(int i) { return *tomcats_[static_cast<std::size_t>(i)]; }
  server::MySqlServer& mysql(int i = 0) { return *mysqls_[static_cast<std::size_t>(i)]; }
  server::DbRouter& db_router(int tomcat) {
    return *db_routers_[static_cast<std::size_t>(tomcat)];
  }
  /// Every balanced hop: each Apache's route to the Tomcats, then each
  /// MySQL-mode DB router's route to the replicas.
  std::span<server::Route* const> routes() const { return routes_; }
  /// The shared KV quorum tier; null unless config.db_tier == kKv.
  kv::KvTier* kv_tier() { return kv_tier_.get(); }
  const kv::KvTier* kv_tier() const { return kv_tier_.get(); }
  kv::KvReplica& kv_replica(int i) {
    return *kv_replicas_[static_cast<std::size_t>(i)];
  }
  /// The look-aside cache tier; null unless config.cache_tier.
  cache::CacheTier* cache_tier() { return cache_tier_.get(); }
  const cache::CacheTier* cache_tier() const { return cache_tier_.get(); }
  int num_cache_nodes() const { return static_cast<int>(cache_nodes_.size()); }
  os::Node& cache_node(int i) {
    return *cache_nodes_[static_cast<std::size_t>(i)];
  }
  /// Null unless config.fault_plan is non-empty.
  const ChaosController* chaos() const { return chaos_.get(); }
  /// The cross-tier event collector; null unless config.event_trace,
  /// config.telemetry.enabled, config.online_detect or
  /// config.recovery.enabled (the latter three run it ring-less as a pure
  /// event bus for their sinks).
  obs::TraceCollector* trace() { return trace_.get(); }
  const obs::TraceCollector* trace() const { return trace_.get(); }
  /// Streaming telemetry registry; null unless config.telemetry.enabled.
  metrics::TelemetryRegistry* telemetry() { return telemetry_.get(); }
  const metrics::TelemetryRegistry* telemetry() const { return telemetry_.get(); }
  /// Online millibottleneck detector; null unless config.online_detect.
  millib::OnlineDetector* online_detector() { return detector_.get(); }
  const millib::OnlineDetector* online_detector() const {
    return detector_.get();
  }
  /// Recovery orchestrator; null unless config.recovery.enabled.
  recovery::RecoveryOrchestrator* recovery() { return recovery_.get(); }
  const recovery::RecoveryOrchestrator* recovery() const {
    return recovery_.get();
  }
  /// Ground truth for scoring the online detector: flush/stall intervals of
  /// every Tomcat, indexed by node.
  std::vector<std::vector<std::pair<sim::SimTime, sim::SimTime>>>
  tomcat_truth_intervals() const;
  os::Node& apache_node(int i) { return *apache_nodes_[static_cast<std::size_t>(i)]; }
  os::Node& tomcat_node(int i) { return *tomcat_nodes_[static_cast<std::size_t>(i)]; }
  os::Node& mysql_node(int i = 0) { return *mysql_nodes_[static_cast<std::size_t>(i)]; }

  // -- derived series (tracing only) --------------------------------------------
  /// Per-window *sum over servers* of the per-window queue maxima for each
  /// tier — the paper's tier-level queue plots (Fig. 2(b), 8, 12).
  std::vector<double> apache_tier_queue() const;
  /// Tomcat tier queue in the paper's accounting: requests committed by any
  /// balancer to any Tomcat (includes those blocked inside get_endpoint).
  std::vector<double> tomcat_tier_queue() const;
  std::vector<double> mysql_tier_queue() const;
  /// KV tier queue: per-window sum over replicas of resident-op maxima
  /// (empty in MySQL mode).
  std::vector<double> kv_tier_queue() const;
  /// Committed-queue series of one Tomcat, summed across the 4 balancers.
  std::vector<double> tomcat_committed_series(int tomcat) const;

  /// The per-worker series one Apache's balancer writes, one entry per
  /// Tomcat: the lb_value and committed-queue gauges and one sample per
  /// assignment (Figs. 6, 7, 9–11, 13).
  struct BalancerSeries {
    std::vector<metrics::GaugeSeries> lb_value;
    std::vector<metrics::GaugeSeries> committed;
    std::vector<metrics::TimeSeries> assignments;
  };
  const BalancerSeries& balancer_series(int apache) const {
    return balancer_series_.at(static_cast<std::size_t>(apache));
  }
  /// CPU utilisation (foreground + iowait stall) per 50 ms window of node
  /// `i` of `tier` (kApache, kTomcat, kMysql, kKv or kCache).
  const metrics::TimeSeries& cpu_series(obs::Tier tier, int i) const {
    return node_series(tier, i).cpu.value();
  }
  /// Disk busy fraction per window of Tomcat `i` (Fig. 2(d)).
  const metrics::TimeSeries& tomcat_iowait_series(int i) const {
    return node_series(obs::Tier::kTomcat, i).iowait.value();
  }
  /// Dirty-page bytes of Tomcat `i`'s node (Fig. 2(e)).
  const metrics::GaugeSeries& tomcat_dirty_series(int i) const {
    return node_series(obs::Tier::kTomcat, i).dirty.value();
  }

  /// Mean CPU utilisation over the run, per server (Fig. 5).
  double mean_cpu(const metrics::TimeSeries& s) const;

  /// Ground-truth millibottleneck intervals on a Tomcat node: pdflush
  /// episodes, or injector stalls when a synthetic source is configured.
  std::vector<std::pair<sim::SimTime, sim::SimTime>> flush_intervals(
      int tomcat) const;
  /// Ground-truth millibottleneck intervals on a MySQL node.
  std::vector<std::pair<sim::SimTime, sim::SimTime>> mysql_flush_intervals(
      int replica) const;

  std::size_t num_metric_windows() const;

 private:
  /// One node the sampling tick probes, in the trace's kIoWait order. Its
  /// figure series exist only when config.tracing.
  struct NodeSeries {
    os::Node* node = nullptr;
    obs::Tier tier = obs::Tier::kTomcat;
    int index = 0;
    std::optional<metrics::TimeSeries> cpu;
    std::optional<metrics::TimeSeries> iowait;  // Tomcats
    std::optional<metrics::GaugeSeries> queue;  // resident: Apache, MySQL, KV
    std::optional<metrics::GaugeSeries> dirty;  // Tomcats
  };

  void build();
  /// When config.tracing or the event trace is on: build the node list, the
  /// sampling tick and, when config.tracing, every figure series, attached
  /// to the component that writes it.
  void build_series();
  /// The sampling tick: CPU of every node and iowait of every node that can
  /// emit it, for the window starting at `window_start`.
  void sample(sim::SimTime window_start);
  /// Close every gauge at the end of the run.
  void finish_series();
  const NodeSeries& node_series(obs::Tier tier, int i) const;
  /// Per-window sum over `tier`'s servers of their queue-gauge maxima.
  std::vector<double> tier_queue(obs::Tier tier) const;
  /// Fill config defaults that depend on other fields (kv mode gives the
  /// workload a key space when none was set).
  static ExperimentConfig normalized(ExperimentConfig config);
  std::unique_ptr<os::Node> make_node(const std::string& name,
                                      bool millibottlenecks,
                                      os::PdflushConfig pdflush, int index);

  ExperimentConfig config_;
  sim::Simulation sim_;
  workload::RubbosWorkload workload_;
  metrics::RequestLog log_;

  std::vector<std::unique_ptr<os::Node>> apache_nodes_;
  std::vector<std::unique_ptr<os::Node>> tomcat_nodes_;
  std::vector<std::unique_ptr<os::Node>> mysql_nodes_;
  std::vector<std::unique_ptr<os::Node>> kv_nodes_;
  std::vector<std::unique_ptr<server::MySqlServer>> mysqls_;
  std::vector<std::unique_ptr<kv::KvReplica>> kv_replicas_;
  std::unique_ptr<kv::KvTier> kv_tier_;
  std::vector<std::unique_ptr<os::Node>> cache_nodes_;
  std::unique_ptr<cache::CacheTier> cache_tier_;
  std::vector<std::unique_ptr<millib::CapacityStallInjector>> kv_injectors_;
  std::vector<std::unique_ptr<server::DbRouter>> db_routers_;
  std::vector<std::unique_ptr<server::TomcatServer>> tomcats_;
  std::vector<std::unique_ptr<server::ApacheServer>> apaches_;
  std::vector<std::unique_ptr<millib::CapacityStallInjector>> injectors_;
  std::vector<server::Route*> routes_;
  std::unique_ptr<workload::ClientPopulation> clients_;
  std::unique_ptr<workload::TraceReplayer> replayer_;
  std::unique_ptr<ChaosController> chaos_;
  std::unique_ptr<obs::TraceCollector> trace_;
  std::unique_ptr<metrics::TelemetryRegistry> telemetry_;
  std::unique_ptr<metrics::TelemetryFeed> telemetry_feed_;
  std::unique_ptr<millib::OnlineDetector> detector_;
  std::unique_ptr<recovery::RecoveryOrchestrator> recovery_;

  /// Tomcats, then Apaches, MySQL, KV and cache nodes; empty when nothing
  /// samples. Built once; the components hold pointers into it.
  std::vector<NodeSeries> nodes_;
  std::vector<BalancerSeries> balancer_series_;  // per Apache; tracing only
  std::unique_ptr<metrics::PeriodicSampler> sampler_;
  bool ran_ = false;
};

}  // namespace ntier::experiment
