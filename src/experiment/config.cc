#include "experiment/config.h"

#include <cmath>
#include <sstream>

namespace ntier::experiment {

std::string to_string(StallSource s) {
  switch (s) {
    case StallSource::kPdflush: return "pdflush";
    case StallSource::kGcPause: return "gc_pause";
    case StallSource::kDvfs: return "dvfs";
    case StallSource::kVmConsolidation: return "vm_consolidation";
  }
  return "?";
}

ExperimentConfig ExperimentConfig::paper_scale() {
  ExperimentConfig c;
  c.label = "paper_scale";
  c.num_clients = 70'000;
  c.think_mean = sim::SimTime::seconds(7);
  c.duration = sim::SimTime::seconds(180);
  c.warmup = sim::SimTime::seconds(10);
  return c;
}

ExperimentConfig ExperimentConfig::scaled(double factor) {
  ExperimentConfig c;
  c.label = "scaled";
  // Keep clients/think constant => identical offered load and identical
  // per-server dynamics, with factor× less client-state to simulate.
  c.num_clients = static_cast<int>(std::lround(70'000 * factor));
  c.think_mean = sim::SimTime::from_seconds(7.0 * factor);
  c.duration = sim::SimTime::seconds(60);
  c.warmup = sim::SimTime::seconds(3);
  return c;
}

ExperimentConfig ExperimentConfig::single_node(double factor) {
  ExperimentConfig c = scaled(factor);
  c.label = "single_node";
  c.num_apaches = 1;
  c.num_tomcats = 1;
  // One Tomcat serves what a quarter of the cluster would.
  c.num_clients /= 4;
  c.apache_millibottlenecks = true;
  c.tomcat_millibottlenecks = true;
  return c;
}

void ExperimentConfig::enable_resilience() {
  apache.prober.enabled = true;
  apache.retry.enabled = true;
  balancer.breaker.enabled = true;
}

std::string describe(const ExperimentConfig& c) {
  std::ostringstream os;
  os << c.label << ": " << c.num_apaches << "A/" << c.num_tomcats << "T/";
  if (c.db_tier == server::DbTier::kKv)
    os << c.kv.replicas << "KV";
  else
    os << c.num_mysql << "M";
  if (c.replay_trace) {
    // The replayed trace is the offered load; the closed-loop population is
    // idled during a replay, so its size and think time say nothing.
    const workload::ArrivalTrace& t = *c.replay_trace;
    os << ", " << t.size() << " arrivals";
    const double span = t.empty() ? 0.0 : t.events().back().at.to_seconds();
    if (span > 0)
      os << " (" << static_cast<int>(static_cast<double>(t.size()) / span)
         << " req/s mean)";
  } else {
    os << ", " << c.num_clients << " clients, think "
       << c.think_mean.to_string() << " ("
       << static_cast<int>(c.offered_rps()) << " req/s)";
  }
  os << ", " << c.duration.to_string() << ", policy="
     << lb::to_string(c.policy) << ", mechanism=" << lb::to_string(c.mechanism)
     << ", millibottlenecks="
     << (c.tomcat_millibottlenecks
             ? "tomcat(" + to_string(c.tomcat_stall_source) + ")"
             : "none")
     << (c.apache_millibottlenecks ? "+apache" : "")
     << (c.mysql_millibottlenecks ? "+mysql" : "");
  if (c.db_tier == server::DbTier::kMysql && c.num_mysql > 1)
    os << ", " << c.num_mysql << " DB replicas";
  if (c.db_tier == server::DbTier::kKv) {
    os << ", kv(" << sim::spec_text(c.kv) << ")";
    if (c.kv_millibottlenecks) os << "+hot-shard stalls";
    if (c.workload.key_space > 0)
      os << ", zipf(s=" << c.workload.zipf_s << ", keys="
         << c.workload.key_space << ")";
  }
  if (c.sticky_sessions) os << ", sticky";
  if (c.bursty_workload) os << ", bursty";
  if (c.apache.prober.enabled || c.balancer.breaker.enabled ||
      c.apache.retry.enabled)
    os << ", resilience";
  if (lb::runs_probe_pool(c.probe.enabled, c.policy))
    os << ", probes(" << static_cast<int>(c.probe.rate_hz) << "/s d="
       << c.probe.d << " stale=" << c.probe.staleness.to_string() << ")";
  if (!c.fault_plan.empty())
    os << ", chaos(" << c.fault_plan.size() << " faults)";
  if (c.recovery.enabled)
    os << ", recovery(degrade=" << recovery::kDegradeRatio
       << "x, tick=" << recovery::kTick.to_string() << ")";
  if (c.overload.any())
    os << ", overload=" << control::to_string(c.overload.mode) << "(budget="
       << c.overload.deadline_budget.to_string() << ")";
  if (c.workload.priority_mix == workload::PriorityMix::kRubbos)
    os << ", priorities=rubbos";
  if (c.replay_trace)
    os << ", replay(" << c.replay_trace->size() << " arrivals"
       << (c.replay_trace->rich() ? ", rich" : "") << ")";
  return os.str();
}

}  // namespace ntier::experiment
