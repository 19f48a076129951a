#include "experiment/experiment.h"

#include <algorithm>
#include <stdexcept>

#include "experiment/chaos.h"

namespace ntier::experiment {

ExperimentConfig Experiment::normalized(ExperimentConfig config) {
  // The KV tier needs keys to shard by; give Zipf draws a population when
  // the caller did not pick one. MySQL-mode configs are left untouched so
  // their RNG streams stay byte-identical to pre-KV builds.
  if (config.db_tier == server::DbTier::kKv && config.workload.key_space == 0)
    config.workload.key_space = 10'000;
  // Trace replay idles the closed loop: one client whose think time sits far
  // past any run horizon, so the population still exists (the chaos harness
  // quiesces it and reads its link/counters) but issues nothing.
  if (config.replay_trace) {
    config.num_clients = 1;
    config.think_mean = sim::SimTime::seconds(1'000'000);
  }
  return config;
}

Experiment::Experiment(ExperimentConfig config)
    : config_(normalized(std::move(config))),
      sim_(config_.seed),
      workload_(config_.workload),
      log_(kMetricWindow, config_.keep_records) {
  build();
}

Experiment::~Experiment() = default;

std::unique_ptr<os::Node> Experiment::make_node(const std::string& name,
                                                bool millibottlenecks,
                                                os::PdflushConfig pdflush,
                                                int index) {
  os::NodeConfig nc;
  nc.name = name;
  nc.cores = config_.cores;
  nc.disk_bytes_per_second = config_.disk_bytes_per_second;
  nc.pdflush = pdflush;
  nc.pdflush.enabled = millibottlenecks;
  nc.pdflush.initial_offset =
      config_.pdflush_stagger * static_cast<std::int64_t>(index);
  return std::make_unique<os::Node>(sim_, nc);
}

void Experiment::build() {
  // Telemetry, online detection and recovery ride the event stream, so the
  // collector exists whenever any consumer does; without event_trace it runs
  // ring-less (pure event bus, no retention).
  const bool obs_consumers = config_.telemetry.enabled ||
                             config_.online_detect ||
                             config_.recovery.enabled;
  if (config_.event_trace || obs_consumers) {
    obs::TraceConfig tc;
    tc.capacity = config_.trace_capacity;
    // Tail sampling replaces full ring retention: the retained view (size(),
    // for_each(), the written trace file) becomes the sampled trace.
    tc.ring = config_.event_trace && !config_.trace_tail.enabled;
    tc.tail = config_.trace_tail;
    trace_ = std::make_unique<obs::TraceCollector>(tc);
  }
  if (config_.telemetry.enabled) {
    telemetry_ = std::make_unique<metrics::TelemetryRegistry>();
    telemetry_->add_view("client.rt_ms", log_.response_time_series());
    telemetry_feed_ = std::make_unique<metrics::TelemetryFeed>(
        *telemetry_, config_.num_tomcats);
    trace_->add_sink(telemetry_feed_.get());
  }
  if (config_.online_detect) {
    millib::OnlineDetectorConfig dc = config_.online_detector;
    dc.window = kMetricWindow;
    detector_ = std::make_unique<millib::OnlineDetector>(
        dc, trace_->tail_enabled() ? trace_.get() : nullptr);
    trace_->add_sink(detector_.get());
  }

  // -- nodes -------------------------------------------------------------------
  for (int i = 0; i < config_.num_apaches; ++i)
    apache_nodes_.push_back(make_node("apache" + std::to_string(i + 1),
                                      config_.apache_millibottlenecks,
                                      config_.apache_pdflush, i));
  const bool tomcat_pdflush =
      config_.tomcat_millibottlenecks &&
      config_.tomcat_stall_source == StallSource::kPdflush;
  for (int i = 0; i < config_.num_tomcats; ++i)
    tomcat_nodes_.push_back(make_node("tomcat" + std::to_string(i + 1),
                                      tomcat_pdflush, config_.tomcat_pdflush,
                                      i));
  const bool kv_mode = config_.db_tier == server::DbTier::kKv;
  if (!kv_mode) {
    for (int i = 0; i < config_.num_mysql; ++i)
      mysql_nodes_.push_back(make_node("mysql" + std::to_string(i + 1),
                                       config_.mysql_millibottlenecks,
                                       config_.mysql_pdflush, i));
  } else {
    // KV replica nodes take the data tier's place; they reuse the MySQL-side
    // pdflush knobs (same disks, same writeback behaviour).
    for (int i = 0; i < config_.kv.replicas; ++i)
      kv_nodes_.push_back(make_node("kv" + std::to_string(i + 1),
                                    config_.mysql_millibottlenecks,
                                    config_.mysql_pdflush, i));
  }

  // Synthetic stall sources (§III-A's non-pdflush causes), staggered the
  // same way the pdflush wakeups are.
  if (config_.tomcat_millibottlenecks &&
      config_.tomcat_stall_source != StallSource::kPdflush) {
    for (int i = 0; i < config_.num_tomcats; ++i) {
      millib::InjectorConfig ic = config_.injector;
      ic.initial_offset =
          ic.initial_offset +
          config_.pdflush_stagger * static_cast<std::int64_t>(i);
      injectors_.push_back(std::make_unique<millib::CapacityStallInjector>(
          sim_, tomcat_nodes_[static_cast<std::size_t>(i)]->cpu(), ic,
          to_string(config_.tomcat_stall_source)));
      injectors_.back()->set_trace(trace_.get(), obs::Tier::kTomcat, i);
    }
  }
  if (trace_) {
    for (int i = 0; i < config_.num_apaches; ++i)
      apache_nodes_[static_cast<std::size_t>(i)]->pdflush().set_trace(
          trace_.get(), obs::Tier::kApache, i);
    for (int i = 0; i < config_.num_tomcats; ++i)
      tomcat_nodes_[static_cast<std::size_t>(i)]->pdflush().set_trace(
          trace_.get(), obs::Tier::kTomcat, i);
    for (int i = 0; i < config_.num_mysql && !kv_mode; ++i)
      mysql_nodes_[static_cast<std::size_t>(i)]->pdflush().set_trace(
          trace_.get(), obs::Tier::kMysql, i);
    for (std::size_t i = 0; i < kv_nodes_.size(); ++i)
      kv_nodes_[i]->pdflush().set_trace(trace_.get(), obs::Tier::kKv,
                                        static_cast<int>(i));
  }

  // -- servers -----------------------------------------------------------------
  if (!kv_mode) {
    for (int i = 0; i < config_.num_mysql; ++i)
      mysqls_.push_back(std::make_unique<server::MySqlServer>(
          sim_, *mysql_nodes_[static_cast<std::size_t>(i)], config_.mysql));
  } else {
    for (int i = 0; i < config_.kv.replicas; ++i)
      kv_replicas_.push_back(std::make_unique<kv::KvReplica>(
          sim_, *kv_nodes_[static_cast<std::size_t>(i)], i,
          config_.kv.hint_capacity));
    std::vector<kv::KvReplica*> kv_ptrs;
    for (auto& r : kv_replicas_) kv_ptrs.push_back(r.get());
    kv_tier_ = std::make_unique<kv::KvTier>(sim_, std::move(kv_ptrs),
                                            config_.kv, net::kLinkLatency);
    if (trace_) kv_tier_->set_trace(trace_.get());
    // The data tier's own millibottleneck source: correlated injector
    // stalls on enough members of the hot key's shard (n - r + 1 of them)
    // that quorum-R completion cannot sidestep the episode. Key rank 0 is
    // the Zipf-hottest key, so shard_of(0) is the hot shard.
    if (config_.kv_millibottlenecks) {
      const int hot_shard = kv_tier_->shard_of(0);
      const auto& members = kv_tier_->shard_members(hot_shard);
      const int stalled = std::min<int>(
          static_cast<int>(members.size()),
          config_.kv.n - config_.kv.r + 1);
      for (int m = 0; m < stalled; ++m) {
        const int node = members[static_cast<std::size_t>(m)];
        kv_injectors_.push_back(std::make_unique<millib::CapacityStallInjector>(
            sim_, kv_nodes_[static_cast<std::size_t>(node)]->cpu(),
            config_.injector, "kv_hot_shard"));
        kv_injectors_.back()->set_trace(trace_.get(), obs::Tier::kKv, node);
      }
    }
  }

  // -- cache tier ---------------------------------------------------------------
  if (config_.cache_tier) {
    if (!kv_mode)
      throw std::invalid_argument(
          "ExperimentConfig: cache_tier requires db_tier == kKv");
    // Cache nodes are memory-only: no log writes, so no pdflush. Their
    // millibottleneck surface is the bounded invalidation queue instead.
    for (int i = 0; i < config_.cache.nodes; ++i)
      cache_nodes_.push_back(make_node("cache" + std::to_string(i + 1),
                                       /*millibottlenecks=*/false,
                                       os::PdflushConfig{}, i));
    std::vector<os::Node*> cache_ptrs;
    for (auto& n : cache_nodes_) cache_ptrs.push_back(n.get());
    cache_tier_ = std::make_unique<cache::CacheTier>(
        sim_, std::move(cache_ptrs), kv_tier_.get(), config_.cache);
    if (trace_) cache_tier_->set_trace(trace_.get());
  }

  std::vector<server::MySqlServer*> replica_ptrs;
  for (auto& m : mysqls_) replica_ptrs.push_back(m.get());

  server::TomcatConfig tc = config_.tomcat;
  tc.overload = config_.overload;
  for (int i = 0; i < config_.num_tomcats; ++i) {
    server::DbRouterConfig dc = config_.db_router;
    dc.overload = config_.overload;
    dc.probe.enabled = lb::runs_probe_pool(dc.probe.enabled, dc.policy);
    if (cache_tier_)
      // Each Tomcat's router is pinned to one cache server, so the same key
      // can be resident on several nodes — which is what the invalidation
      // broadcast exists for.
      db_routers_.push_back(std::make_unique<server::DbRouter>(
          sim_, cache_tier_.get(), i % cache_tier_->num_nodes(), dc));
    else if (kv_mode)
      db_routers_.push_back(
          std::make_unique<server::DbRouter>(sim_, kv_tier_.get(), dc));
    else
      db_routers_.push_back(
          std::make_unique<server::DbRouter>(sim_, replica_ptrs, dc));
    tomcats_.push_back(std::make_unique<server::TomcatServer>(
        sim_, *tomcat_nodes_[static_cast<std::size_t>(i)], i, *db_routers_.back(),
        tc));
  }

  std::vector<server::TomcatServer*> tomcat_ptrs;
  for (auto& t : tomcats_) tomcat_ptrs.push_back(t.get());

  for (int i = 0; i < config_.num_apaches; ++i) {
    server::ApacheConfig ac = config_.apache;
    ac.probe = config_.probe;
    ac.probe.enabled = lb::runs_probe_pool(ac.probe.enabled, config_.policy);
    ac.overload = config_.overload;
    lb::BalancerConfig bc = config_.balancer;
    if (config_.sticky_sessions) bc.sticky_sessions = true;
    auto apache = std::make_unique<server::ApacheServer>(
        sim_, *apache_nodes_[static_cast<std::size_t>(i)], i, tomcat_ptrs,
        lb::make_policy(config_.policy),
        lb::make_acquirer(config_.mechanism, bc.blocking), bc, ac);
    if (trace_) apache->set_trace(trace_.get());
    apaches_.push_back(std::move(apache));
  }
  routes_.reserve(apaches_.size() + db_routers_.size());
  for (auto& a : apaches_) routes_.push_back(&a->route());
  for (auto& r : db_routers_)
    if (server::Route* route = r->route()) routes_.push_back(route);
  if (trace_)
    for (auto& t : tomcats_) t->set_trace(trace_.get());

  // -- recovery orchestration ---------------------------------------------------
  if (config_.recovery.enabled) {
    recovery::RecoverySignals sig;
    sig.queue_depth = [this] {
      double q = 0;
      for (auto& a : apaches_) {
        auto& lb = a->balancer();
        for (int w = 0; w < lb.num_workers(); ++w)
          q += static_cast<double>(lb.record(w).committed);
      }
      return q;
    };
    sig.retries = [this] {
      std::uint64_t r = 0;
      for (auto& a : apaches_) r += a->retries();
      return r;
    };
    sig.first_attempts = [this] {
      std::uint64_t r = 0;
      for (auto& a : apaches_) r += a->first_attempts();
      return r;
    };
    recovery::RecoveryActions act;
    act.suppress_retries = [this](bool on) {
      for (auto& a : apaches_) a->set_retry_suppressed(on);
    };
    act.hard_shed = [this](bool on) {
      for (auto& a : apaches_) a->set_recovery_shed(on);
    };
    if (cache_tier_) {
      act.gate_refills = [this](bool on) {
        cache_tier_->set_refill_gate(on);
      };
    }
    act.reset_breakers = [this] {
      int n = 0;
      for (auto& a : apaches_) n += a->balancer().reset_breakers();
      return n;
    };
    // The recovery baseline must describe the post-warmup steady state.
    recovery::RecoveryConfig rc = config_.recovery;
    rc.warmup = std::max(rc.warmup, config_.warmup);
    recovery_ = std::make_unique<recovery::RecoveryOrchestrator>(
        sim_, rc, std::move(sig), std::move(act));
    recovery_->set_trace(trace_.get());
    trace_->add_sink(recovery_.get());
    recovery_->start();
  }

  // -- clients -----------------------------------------------------------------
  workload::ClientParams cp;
  cp.num_clients = config_.num_clients;
  cp.think_mean = config_.think_mean;
  cp.ramp = config_.think_mean;
  cp.warmup = config_.warmup;
  cp.retransmit = config_.retransmit;
  cp.sticky_sessions = config_.sticky_sessions;
  cp.bursty = config_.bursty_workload;
  cp.burst_multiplier = config_.burst_multiplier;
  if (config_.overload.stamp_deadlines)
    cp.deadline_budget = config_.overload.deadline_budget;
  std::vector<proto::FrontEnd*> fes;
  for (auto& a : apaches_) fes.push_back(a.get());
  clients_ = std::make_unique<workload::ClientPopulation>(sim_, cp, workload_,
                                                          fes, log_);
  if (trace_) clients_->set_trace(trace_.get());

  // -- trace replay -------------------------------------------------------------
  if (config_.replay_trace) {
    workload::ReplayParams rp;
    rp.retransmit = config_.retransmit;
    rp.client_timeout = config_.replay_client_timeout;
    rp.warmup = config_.warmup;
    if (config_.overload.stamp_deadlines)
      rp.deadline_budget = config_.overload.deadline_budget;
    replayer_ = std::make_unique<workload::TraceReplayer>(
        sim_, *config_.replay_trace, workload_, fes, log_, rp);
  }

  // -- chaos -------------------------------------------------------------------
  if (!config_.fault_plan.empty()) {
    chaos_ = std::make_unique<ChaosController>(*this, config_.fault_plan);
    chaos_->arm();
  }

  // -- figure series and the sampling tick --------------------------------------
  build_series();
}

void Experiment::build_series() {
  // iowait sampling doubles as the trace's kIoWait signal, so the tick runs
  // whenever either consumer is on.
  if (!config_.tracing && !trace_) return;
  nodes_.reserve(tomcat_nodes_.size() + apache_nodes_.size() +
                 mysql_nodes_.size() + kv_nodes_.size() + cache_nodes_.size());
  auto add_nodes = [this](std::vector<std::unique_ptr<os::Node>>& nodes,
                          obs::Tier tier) {
    for (std::size_t i = 0; i < nodes.size(); ++i) {
      NodeSeries& n = nodes_.emplace_back();
      n.node = nodes[i].get();
      n.tier = tier;
      n.index = static_cast<int>(i);
    }
  };
  add_nodes(tomcat_nodes_, obs::Tier::kTomcat);
  add_nodes(apache_nodes_, obs::Tier::kApache);
  add_nodes(mysql_nodes_, obs::Tier::kMysql);
  add_nodes(kv_nodes_, obs::Tier::kKv);
  add_nodes(cache_nodes_, obs::Tier::kCache);

  if (config_.tracing) {
    const sim::SimTime w = kMetricWindow;
    for (auto& n : nodes_) {
      n.cpu.emplace(w);
      const auto i = static_cast<std::size_t>(n.index);
      switch (n.tier) {
        case obs::Tier::kTomcat:
          n.iowait.emplace(w);
          n.node->page_cache().set_dirty_series(&n.dirty.emplace(w));
          break;
        case obs::Tier::kApache:
          apaches_[i]->set_queue_series(&n.queue.emplace(w));
          break;
        case obs::Tier::kMysql:
          mysqls_[i]->set_queue_series(&n.queue.emplace(w));
          break;
        case obs::Tier::kKv:
          kv_replicas_[i]->set_queue_series(&n.queue.emplace(w));
          break;
        default:
          break;
      }
    }
    const auto workers = static_cast<std::size_t>(config_.num_tomcats);
    balancer_series_.resize(apaches_.size());
    for (std::size_t a = 0; a < apaches_.size(); ++a) {
      BalancerSeries& s = balancer_series_[a];
      s.lb_value.assign(workers, metrics::GaugeSeries(w));
      s.committed.assign(workers, metrics::GaugeSeries(w));
      s.assignments.assign(workers, metrics::TimeSeries(w));
      apaches_[a]->balancer().set_series(s.lb_value, s.committed,
                                         s.assignments);
    }
  }
  sampler_ = std::make_unique<metrics::PeriodicSampler>(
      sim_, kMetricWindow,
      [this](sim::SimTime window_start) { sample(window_start); });
}

void Experiment::sample(sim::SimTime window_start) {
  // CpuResource::probe_utilisation() advances the PS clock, so every node is
  // probed on every tick while tracing, read or not. Disk probes only touch
  // their own probe state; cache nodes never emit kIoWait.
  for (auto& n : nodes_) {
    if (n.cpu)
      n.cpu->record(window_start,
                    n.node->cpu().probe_utilisation().combined());
    if (n.tier == obs::Tier::kCache) continue;
    const double v = n.node->disk().probe_busy_fraction();
    NTIER_TRACE_EVENT(trace_.get(), sim_.now(), obs::EventKind::kIoWait,
                      n.tier, n.index, -1, 0, v);
    if (n.iowait) n.iowait->record(window_start, v);
  }
}

void Experiment::finish_series() {
  for (auto& n : nodes_) {
    if (n.queue) n.queue->finish(sim_.now());
    if (n.dirty) n.dirty->finish(sim_.now());
  }
  for (auto& s : balancer_series_) {
    for (auto& g : s.lb_value) g.finish(sim_.now());
    for (auto& g : s.committed) g.finish(sim_.now());
  }
}

const Experiment::NodeSeries& Experiment::node_series(obs::Tier tier,
                                                      int i) const {
  for (const auto& n : nodes_)
    if (n.tier == tier && n.index == i) return n;
  throw std::out_of_range("Experiment: no such node");
}

void Experiment::run() {
  if (ran_) throw std::logic_error("Experiment::run called twice");
  ran_ = true;
  clients_->start();
  if (replayer_) replayer_->start();
  sim_.run_until(config_.duration);
  finish_series();
  if (kv_tier_) kv_tier_->finish(config_.duration);
  // Close the online-detection books after every tier stopped emitting, then
  // let the tail sampler make its final keep decisions with the detector's
  // marks in place.
  if (detector_) detector_->finish(config_.duration);
  if (trace_ && trace_->tail_enabled()) trace_->finish_tail();
}

std::vector<std::vector<std::pair<sim::SimTime, sim::SimTime>>>
Experiment::tomcat_truth_intervals() const {
  std::vector<std::vector<std::pair<sim::SimTime, sim::SimTime>>> truth;
  truth.reserve(static_cast<std::size_t>(num_tomcats()));
  for (int t = 0; t < num_tomcats(); ++t) truth.push_back(flush_intervals(t));
  return truth;
}

std::size_t Experiment::num_metric_windows() const {
  return static_cast<std::size_t>(config_.duration.ns() /
                                  kMetricWindow.ns());
}

namespace {
void add_gauge_max(std::vector<double>& acc, const metrics::GaugeSeries& g) {
  for (std::size_t w = 0; w < acc.size(); ++w) acc[w] += g.max(w);
}
}  // namespace

std::vector<double> Experiment::tier_queue(obs::Tier tier) const {
  std::vector<double> acc(num_metric_windows(), 0.0);
  for (const auto& n : nodes_)
    if (n.tier == tier && n.queue) add_gauge_max(acc, *n.queue);
  return acc;
}

std::vector<double> Experiment::apache_tier_queue() const {
  return tier_queue(obs::Tier::kApache);
}

std::vector<double> Experiment::tomcat_tier_queue() const {
  std::vector<double> acc(num_metric_windows(), 0.0);
  for (int t = 0; t < num_tomcats(); ++t) {
    const auto series = tomcat_committed_series(t);
    for (std::size_t w = 0; w < acc.size() && w < series.size(); ++w)
      acc[w] += series[w];
  }
  return acc;
}

std::vector<double> Experiment::mysql_tier_queue() const {
  return tier_queue(obs::Tier::kMysql);
}

std::vector<double> Experiment::kv_tier_queue() const {
  return tier_queue(obs::Tier::kKv);
}

std::vector<double> Experiment::tomcat_committed_series(int tomcat) const {
  std::vector<double> acc(num_metric_windows(), 0.0);
  for (const auto& s : balancer_series_)
    add_gauge_max(acc, s.committed[static_cast<std::size_t>(tomcat)]);
  return acc;
}

double Experiment::mean_cpu(const metrics::TimeSeries& s) const {
  double sum = 0;
  std::int64_t n = 0;
  for (std::size_t i = 0; i < s.num_windows(); ++i) {
    sum += s.sum(i);
    n += s.count(i);
  }
  return n ? sum / static_cast<double>(n) : 0.0;
}

std::vector<std::pair<sim::SimTime, sim::SimTime>> Experiment::flush_intervals(
    int tomcat) const {
  std::vector<std::pair<sim::SimTime, sim::SimTime>> out;
  if (config_.tomcat_millibottlenecks &&
      config_.tomcat_stall_source != StallSource::kPdflush) {
    for (const auto& e :
         injectors_[static_cast<std::size_t>(tomcat)]->episodes())
      out.emplace_back(e.start, e.end);
    return out;
  }
  for (const auto& e :
       tomcat_nodes_[static_cast<std::size_t>(tomcat)]->pdflush().episodes()) {
    out.emplace_back(e.start, e.end == sim::SimTime::max() ? config_.duration
                                                           : e.end);
  }
  return out;
}

std::vector<std::pair<sim::SimTime, sim::SimTime>>
Experiment::mysql_flush_intervals(int replica) const {
  std::vector<std::pair<sim::SimTime, sim::SimTime>> out;
  for (const auto& e :
       mysql_nodes_[static_cast<std::size_t>(replica)]->pdflush().episodes()) {
    out.emplace_back(e.start, e.end == sim::SimTime::max() ? config_.duration
                                                           : e.end);
  }
  return out;
}

}  // namespace ntier::experiment
