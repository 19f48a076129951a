#include "millib/causal_chain.h"

#include <algorithm>
#include <cstdio>
#include <map>
#include <ostream>
#include <unordered_map>
#include <utility>

namespace ntier::millib {

const char* to_string(Hop h) {
  switch (h) {
    case Hop::kConnect: return "connect";
    case Hop::kBalancing: return "balancing";
    case Hop::kBackend: return "backend";
    case Hop::kReply: return "reply";
  }
  return "?";
}

namespace {

using obs::EventKind;
using obs::Tier;
using obs::TraceEvent;
using sim::SimTime;

struct Interval {
  SimTime start;
  SimTime end;
  double magnitude = 0.0;
};

bool overlaps(SimTime a0, SimTime a1, SimTime b0, SimTime b1) {
  return a0 <= b1 && b0 <= a1;
}

/// Per-request join state accumulated in one pass over the trace.
struct ReqState {
  SimTime send = SimTime::max();
  SimTime pickup = SimTime::max();
  SimTime acquire = SimTime::max();
  SimTime release = SimTime::max();
  SimTime done = SimTime::max();
  double response_ms = 0.0;
  std::int32_t outcome = -1;
  std::int32_t tomcat = -1;
  std::vector<SimTime> retransmits;
};

}  // namespace

std::uint64_t CausalChainReport::full_chains() const {
  std::uint64_t n = 0;
  for (const auto& c : chains)
    if (c.full_chain()) ++n;
  return n;
}

std::uint64_t CausalChainReport::attributed() const {
  std::uint64_t n = 0;
  for (const auto& v : vlrt)
    if (v.episode >= 0) ++n;
  return n;
}

double CausalChainReport::coverage() const {
  if (vlrt.empty()) return 0.0;
  return static_cast<double>(attributed()) / static_cast<double>(vlrt.size());
}

std::vector<std::vector<std::pair<SimTime, SimTime>>>
CausalChainReport::tomcat_truth_intervals() const {
  std::vector<std::vector<std::pair<SimTime, SimTime>>> truth;
  for (const auto& c : chains) {
    if (c.tier != Tier::kTomcat || c.node < 0) continue;
    if (truth.size() <= static_cast<std::size_t>(c.node))
      truth.resize(static_cast<std::size_t>(c.node) + 1);
    truth[static_cast<std::size_t>(c.node)].emplace_back(c.start, c.end);
  }
  return truth;
}

CausalChainReport CausalChainAnalyzer::analyze(
    const std::vector<TraceEvent>& events) const {
  CausalChainReport report;
  report.events = events.size();

  // ---- pass 1: split the trace into the signals the chain joins -------------
  std::vector<EpisodeChain> chains;
  std::map<std::pair<int, int>, SimTime> open_os;  // (tier,node) -> start
  std::map<std::pair<int, int>, std::vector<std::pair<SimTime, double>>>
      iowait_samples;  // (tier,node) -> samples
  std::map<std::pair<int, int>, std::vector<SimTime>>
      lb_updates;  // (balancer node, worker) -> update times
  std::vector<std::pair<SimTime, std::uint64_t>> retransmits;
  std::vector<SimTime> shed_times;
  // KV quorum completions: (at, shard, wait_ms, degraded).
  struct KvOp {
    SimTime at;
    int shard;
    double wait_ms;
    bool degraded;
  };
  std::vector<KvOp> kv_ops;
  std::vector<SimTime> cache_misses;
  std::unordered_map<std::uint64_t, ReqState> reqs;
  // The detector rebuilds each Tomcat's committed queue from balancer-side
  // deltas and records its spike runs.
  OnlineDetector detector(config_.detector);
  const OnlineDetectorConfig& thresholds = detector.config();
  SimTime last_event;

  for (const TraceEvent& e : events) {
    last_event = std::max(last_event, e.at);
    detector.observe(e);
    switch (e.kind) {
      case EventKind::kPdflushStart:
      case EventKind::kStallStart:
        open_os[{static_cast<int>(e.tier), e.node}] = e.at;
        break;
      case EventKind::kPdflushStop:
      case EventKind::kStallStop: {
        const auto key = std::make_pair(static_cast<int>(e.tier), e.node);
        auto it = open_os.find(key);
        EpisodeChain c;
        c.tier = e.tier;
        c.node = e.node;
        c.synthetic = e.kind == EventKind::kStallStop;
        c.start = it != open_os.end() ? it->second : e.at;
        c.end = e.at;
        c.magnitude = e.value;
        chains.push_back(c);
        if (it != open_os.end()) open_os.erase(it);
        break;
      }
      case EventKind::kIoWait:
        iowait_samples[{static_cast<int>(e.tier), e.node}].emplace_back(e.at,
                                                                        e.value);
        break;
      case EventKind::kLbValue:
        lb_updates[{static_cast<int>(e.node), e.worker}].push_back(e.at);
        break;
      case EventKind::kSynRetransmit:
        retransmits.emplace_back(e.at, e.request);
        reqs[e.request].retransmits.push_back(e.at);
        break;
      case EventKind::kAdmissionShed:
        ++report.admission_shed_events;
        shed_times.push_back(e.at);
        break;
      case EventKind::kDeadlineExpired:
        ++report.deadline_shed_events;
        shed_times.push_back(e.at);
        break;
      case EventKind::kLimitUpdate:
        ++report.limit_updates;
        break;
      case EventKind::kKvQuorumRead:
      case EventKind::kKvQuorumWrite:
        kv_ops.push_back(KvOp{e.at, e.node, e.value, e.aux > 0});
        break;
      case EventKind::kKvHandoffReplay:
        ++report.kv_handoff_replays;
        break;
      case EventKind::kKvReadRepair:
        ++report.kv_read_repairs;
        break;
      case EventKind::kKvMigration:
        if (e.aux > 0) ++report.kv_migrations;  // aux = +1 marks the start
        break;
      case EventKind::kCacheHit:
        ++report.cache_hit_events;
        break;
      case EventKind::kCacheMiss:
        ++report.cache_miss_events;
        cache_misses.push_back(e.at);
        break;
      case EventKind::kCacheInvalidate:
        ++report.cache_invalidation_events;
        if (e.aux < 0) ++report.cache_invalidation_drops;
        break;
      case EventKind::kCacheCoalesced:
        ++report.cache_coalesced_events;
        break;
      case EventKind::kClientSend:
        reqs[e.request].send = std::min(reqs[e.request].send, e.at);
        break;
      case EventKind::kWorkerPickup: {
        auto& r = reqs[e.request];
        r.pickup = std::min(r.pickup, e.at);
        break;
      }
      case EventKind::kEndpointAcquire: {
        auto& r = reqs[e.request];
        r.acquire = std::min(r.acquire, e.at);
        r.tomcat = e.worker;
        break;
      }
      case EventKind::kEndpointRelease: {
        auto& r = reqs[e.request];
        r.release = e.at;  // last release wins (retries)
        break;
      }
      case EventKind::kClientDone: {
        auto& r = reqs[e.request];
        r.done = e.at;
        r.response_ms = e.value;
        r.outcome = e.aux;
        break;
      }
      default:
        break;
    }
  }
  // Close the books one window past the last event.
  detector.finish(last_event + thresholds.window);
  std::sort(chains.begin(), chains.end(),
            [](const EpisodeChain& a, const EpisodeChain& b) {
              return a.start < b.start;
            });

  // ---- derived signals ------------------------------------------------------
  // iowait spike intervals: maximal runs of samples at/above the threshold.
  std::map<std::pair<int, int>, std::vector<Interval>> iowait_spikes;
  for (const auto& [key, samples] : iowait_samples) {
    std::vector<Interval>& out = iowait_spikes[key];
    for (std::size_t i = 0; i < samples.size(); ++i) {
      if (samples[i].second < thresholds.iowait_threshold) continue;
      Interval iv{samples[i].first, samples[i].first, samples[i].second};
      while (i + 1 < samples.size() &&
             samples[i + 1].second >= thresholds.iowait_threshold) {
        ++i;
        iv.end = samples[i].first;
        iv.magnitude = std::max(iv.magnitude, samples[i].second);
      }
      out.push_back(iv);
    }
  }
  // Frozen-lb_value intervals: gaps between consecutive updates.
  std::map<std::pair<int, int>, std::vector<Interval>> lb_freezes;
  for (const auto& [key, times] : lb_updates) {
    std::vector<Interval>& out = lb_freezes[key];
    for (std::size_t i = 1; i < times.size(); ++i) {
      const SimTime gap = times[i] - times[i - 1];
      if (gap >= thresholds.lb_freeze_min)
        out.push_back(Interval{times[i - 1], times[i], gap.to_millis()});
    }
  }
  // Committed-queue spikes: the detector's runs, Tomcat by Tomcat.
  std::vector<SpikeRun> queue_spikes = detector.spike_runs();
  std::stable_sort(queue_spikes.begin(), queue_spikes.end(),
                   [](const SpikeRun& a, const SpikeRun& b) {
                     return a.node < b.node;
                   });

  // ---- join links onto each OS episode --------------------------------------
  const SimTime slack = config_.slack;
  for (EpisodeChain& c : chains) {
    const SimTime lo = c.start - slack;
    const SimTime hi = c.end + slack;

    const auto node_key = std::make_pair(static_cast<int>(c.tier), c.node);
    if (auto it = iowait_spikes.find(node_key); it != iowait_spikes.end()) {
      for (const Interval& iv : it->second) {
        if (!overlaps(iv.start, iv.end, lo, hi)) continue;
        c.iowait.present = true;
        c.iowait.lag_ms = (iv.start - c.start).to_millis();
        c.iowait.magnitude = std::max(c.iowait.magnitude, iv.magnitude);
        ++c.iowait.count;
      }
    }
    // A Tomcat-tier episode freezes that worker's lb_value in *every*
    // balancer; any one frozen copy establishes the link.
    for (const auto& [key, freezes] : lb_freezes) {
      if (c.tier == Tier::kTomcat && key.second != c.node) continue;
      for (const Interval& iv : freezes) {
        if (!overlaps(iv.start, iv.end, lo, hi)) continue;
        if (!c.frozen_lb.present || iv.magnitude > c.frozen_lb.magnitude) {
          c.frozen_lb.lag_ms = (iv.start - c.start).to_millis();
          c.frozen_lb.magnitude = iv.magnitude;
        }
        c.frozen_lb.present = true;
        ++c.frozen_lb.count;
      }
    }
    for (const SpikeRun& s : queue_spikes) {
      if (c.tier == Tier::kTomcat && s.node != c.node) continue;
      if (!overlaps(s.start, s.end, lo, hi)) continue;
      if (!c.queue_spike.present || s.peak > c.queue_spike.magnitude) {
        c.queue_spike.lag_ms = (s.start - c.start).to_millis();
        c.queue_spike.magnitude = s.peak;
      }
      c.queue_spike.present = true;
      ++c.queue_spike.count;
    }
    for (const auto& [at, req] : retransmits) {
      if (at < lo || at > hi) continue;
      if (!c.retransmits.present) c.retransmits.lag_ms = (at - c.start).to_millis();
      c.retransmits.present = true;
      ++c.retransmits.count;
      c.retransmits.magnitude = static_cast<double>(c.retransmits.count);
    }
    for (const SimTime at : shed_times) {
      if (at < lo || at > hi) continue;
      if (!c.sheds.present) c.sheds.lag_ms = (at - c.start).to_millis();
      c.sheds.present = true;
      ++c.sheds.count;
      c.sheds.magnitude = static_cast<double>(c.sheds.count);
    }
    // Cache misses during a cache-tier episode: the storm's first
    // downstream hop (invalidations evict the hot keys, reads miss).
    if (c.tier == Tier::kCache) {
      for (const SimTime at : cache_misses) {
        if (at < lo || at > hi) continue;
        if (!c.cache_miss.present)
          c.cache_miss.lag_ms = (at - c.start).to_millis();
        c.cache_miss.present = true;
        ++c.cache_miss.count;
        c.cache_miss.magnitude = static_cast<double>(c.cache_miss.count);
      }
    }
    // Slow quorum completions during a KV-node episode: the hot-shard
    // chain's first downstream hop (node = replica here, shard membership
    // is not in the trace, so any overlapping slow op joins). Cache-tier
    // episodes join too — the storm's miss spike lands on the hot shard.
    if (c.tier == Tier::kKv || c.tier == Tier::kCache) {
      for (const auto& op : kv_ops) {
        if (op.wait_ms < config_.kv_slow_quorum_ms) continue;
        if (op.at < lo || op.at > hi) continue;
        if (!c.kv_quorum.present)
          c.kv_quorum.lag_ms = (op.at - c.start).to_millis();
        c.kv_quorum.present = true;
        ++c.kv_quorum.count;
        c.kv_quorum.magnitude = std::max(c.kv_quorum.magnitude, op.wait_ms);
      }
    }
  }

  // ---- per-shard KV digest --------------------------------------------------
  {
    std::map<int, KvShardSummary> shards;
    for (const auto& op : kv_ops) {
      KvShardSummary& s = shards[op.shard];
      s.shard = op.shard;
      ++s.ops;
      if (op.degraded) ++s.degraded_ops;
      s.mean_wait_ms += op.wait_ms;  // sum; divided below
      s.max_wait_ms = std::max(s.max_wait_ms, op.wait_ms);
    }
    for (auto& [id, s] : shards) {
      s.mean_wait_ms /= static_cast<double>(s.ops);
      report.kv_shards.push_back(s);
    }
    std::sort(report.kv_shards.begin(), report.kv_shards.end(),
              [](const KvShardSummary& a, const KvShardSummary& b) {
                if (a.mean_wait_ms != b.mean_wait_ms)
                  return a.mean_wait_ms > b.mean_wait_ms;
                return a.shard < b.shard;
              });
  }

  // ---- VLRT attribution -----------------------------------------------------
  report.requests = reqs.size();
  std::vector<std::pair<std::uint64_t, const ReqState*>> vlrts;
  for (const auto& [id, r] : reqs) {
    if (r.done == SimTime::max() || r.outcome != 0) continue;  // kOk only
    if (r.response_ms < thresholds.vlrt_threshold_ms) continue;
    vlrts.emplace_back(id, &r);
  }
  std::sort(vlrts.begin(), vlrts.end());

  for (const auto& [id, rp] : vlrts) {
    const ReqState& r = *rp;
    VlrtAttribution a;
    a.request = id;
    a.response_ms = r.response_ms;
    a.retransmissions = static_cast<std::uint32_t>(r.retransmits.size());
    a.tomcat = r.tomcat;

    const bool picked = r.pickup != SimTime::max();
    const bool acquired = r.acquire != SimTime::max();
    const bool released = r.release != SimTime::max();
    const SimTime pickup = picked ? r.pickup : r.done;
    const SimTime acquire = acquired ? r.acquire : r.done;
    const SimTime release = released ? r.release : r.done;
    a.hop_ms[0] = (pickup - r.send).to_millis();
    a.hop_ms[1] = picked ? (acquire - pickup).to_millis() : 0.0;
    a.hop_ms[2] = acquired ? (release - acquire).to_millis() : 0.0;
    a.hop_ms[3] = released ? (r.done - release).to_millis() : 0.0;
    std::size_t dom = 0;
    for (std::size_t h = 1; h < a.hop_ms.size(); ++h)
      if (a.hop_ms[h] > a.hop_ms[dom]) dom = h;
    a.dominant = static_cast<Hop>(dom);

    for (std::size_t ci = 0; ci < chains.size(); ++ci) {
      EpisodeChain& c = chains[ci];
      const SimTime lo = c.start - slack;
      const SimTime hi = c.end + slack;
      bool match = false;
      for (const SimTime rt : r.retransmits)
        if (rt >= lo && rt <= hi) { match = true; break; }
      // Waiting out the stall inside the front end / balancer / backend.
      if (!match && picked && overlaps(r.send, pickup, lo, hi)) match = true;
      if (!match && picked && acquired && overlaps(pickup, acquire, lo, hi))
        match = true;
      if (!match && acquired && overlaps(acquire, release, lo, hi) &&
          (c.tier != Tier::kTomcat || r.tomcat == c.node))
        match = true;
      if (match) {
        a.episode = static_cast<int>(ci);
        ++c.vlrts;
        break;
      }
    }
    report.vlrt.push_back(a);
  }

  report.chains = std::move(chains);
  report.online_episodes = detector.episodes();
  return report;
}

// ---- reporting --------------------------------------------------------------

namespace {

void print_link(std::ostream& os, const char* name, const ChainLink& l,
                const char* unit) {
  char buf[160];
  if (l.present)
    std::snprintf(buf, sizeof buf, "    %-18s lag %+8.1f ms   %s %.2f (x%llu)\n",
                  name, l.lag_ms, unit, l.magnitude,
                  static_cast<unsigned long long>(l.count));
  else
    std::snprintf(buf, sizeof buf, "    %-18s (not observed)\n", name);
  os << buf;
}

}  // namespace

void CausalChainReport::print(std::ostream& os) const {
  char buf[256];
  std::snprintf(buf, sizeof buf,
                "causal-chain report: %llu events, %llu requests, %zu OS "
                "episodes (%llu full chains)\n",
                static_cast<unsigned long long>(events),
                static_cast<unsigned long long>(requests), chains.size(),
                static_cast<unsigned long long>(full_chains()));
  os << buf;
  for (std::size_t i = 0; i < chains.size(); ++i) {
    const EpisodeChain& c = chains[i];
    std::snprintf(buf, sizeof buf, "  [%zu] %s %s%d %.3fs-%.3fs (%.0f ms) %s\n",
                  i, c.synthetic ? "stall" : "pdflush", obs::to_string(c.tier),
                  c.node, c.start.to_seconds(), c.end.to_seconds(),
                  (c.end - c.start).to_millis(),
                  c.full_chain() ? "FULL CHAIN" : "partial");
    os << buf;
    print_link(os, "iowait spike", c.iowait, "peak");
    print_link(os, "frozen lb_value", c.frozen_lb, "gap_ms");
    print_link(os, "queue spike", c.queue_spike, "peak");
    print_link(os, "syn retransmits", c.retransmits, "count");
    if (c.sheds.present) print_link(os, "overload sheds", c.sheds, "count");
    if (c.tier == obs::Tier::kKv || c.tier == obs::Tier::kCache)
      print_link(os, "slow kv quorum", c.kv_quorum, "max_ms");
    if (c.tier == obs::Tier::kCache)
      print_link(os, "cache miss spike", c.cache_miss, "count");
    std::snprintf(buf, sizeof buf, "    %-18s %llu attributed\n", "vlrts",
                  static_cast<unsigned long long>(c.vlrts));
    os << buf;
  }
  if (!kv_shards.empty()) {
    std::snprintf(buf, sizeof buf,
                  "kv tier: %zu shards active, %llu handoff replays, %llu "
                  "read repairs, %llu migrations; hottest shards:\n",
                  kv_shards.size(),
                  static_cast<unsigned long long>(kv_handoff_replays),
                  static_cast<unsigned long long>(kv_read_repairs),
                  static_cast<unsigned long long>(kv_migrations));
    os << buf;
    const std::size_t top = std::min<std::size_t>(3, kv_shards.size());
    for (std::size_t i = 0; i < top; ++i) {
      const KvShardSummary& s = kv_shards[i];
      std::snprintf(buf, sizeof buf,
                    "  shard %-3d %8llu ops, mean wait %8.2f ms, max %8.2f "
                    "ms, %llu degraded\n",
                    s.shard, static_cast<unsigned long long>(s.ops),
                    s.mean_wait_ms, s.max_wait_ms,
                    static_cast<unsigned long long>(s.degraded_ops));
      os << buf;
    }
  }
  if (cache_hit_events || cache_miss_events || cache_invalidation_events) {
    std::snprintf(buf, sizeof buf,
                  "cache tier: %llu hits, %llu misses, %llu invalidations "
                  "(%llu dropped), %llu coalesced fills\n",
                  static_cast<unsigned long long>(cache_hit_events),
                  static_cast<unsigned long long>(cache_miss_events),
                  static_cast<unsigned long long>(cache_invalidation_events),
                  static_cast<unsigned long long>(cache_invalidation_drops),
                  static_cast<unsigned long long>(cache_coalesced_events));
    os << buf;
  }
  if (admission_shed_events || deadline_shed_events || limit_updates) {
    std::snprintf(buf, sizeof buf,
                  "overload control: %llu admission sheds, %llu expired-work "
                  "sheds, %llu limit updates\n",
                  static_cast<unsigned long long>(admission_shed_events),
                  static_cast<unsigned long long>(deadline_shed_events),
                  static_cast<unsigned long long>(limit_updates));
    os << buf;
  }
  std::array<std::uint64_t, 4> by_hop{};
  for (const auto& v : vlrt) by_hop[static_cast<std::size_t>(v.dominant)]++;
  std::snprintf(buf, sizeof buf,
                "VLRT attribution: %llu/%zu explained (%.1f%% coverage)\n",
                static_cast<unsigned long long>(attributed()), vlrt.size(),
                100.0 * coverage());
  os << buf;
  std::snprintf(buf, sizeof buf,
                "  dominant hop: connect %llu, balancing %llu, backend %llu, "
                "reply %llu\n",
                static_cast<unsigned long long>(by_hop[0]),
                static_cast<unsigned long long>(by_hop[1]),
                static_cast<unsigned long long>(by_hop[2]),
                static_cast<unsigned long long>(by_hop[3]));
  os << buf;
}

namespace {

void json_link(std::ostream& os, const char* name, const ChainLink& l,
               bool trailing_comma = true) {
  os << "\"" << name << "\":{\"present\":" << (l.present ? "true" : "false")
     << ",\"lag_ms\":" << l.lag_ms << ",\"magnitude\":" << l.magnitude
     << ",\"count\":" << l.count << "}";
  if (trailing_comma) os << ",";
}

}  // namespace

void CausalChainReport::to_json(std::ostream& os) const {
  os << "{\"events\":" << events << ",\"requests\":" << requests
     << ",\"full_chains\":" << full_chains()
     << ",\"coverage\":" << coverage()
     << ",\"admission_shed_events\":" << admission_shed_events
     << ",\"deadline_shed_events\":" << deadline_shed_events
     << ",\"limit_updates\":" << limit_updates << ",\"episodes\":[";
  for (std::size_t i = 0; i < chains.size(); ++i) {
    const EpisodeChain& c = chains[i];
    if (i) os << ",";
    os << "{\"kind\":\"" << (c.synthetic ? "stall" : "pdflush")
       << "\",\"tier\":\"" << obs::to_string(c.tier)
       << "\",\"node\":" << c.node << ",\"start_s\":" << c.start.to_seconds()
       << ",\"end_s\":" << c.end.to_seconds()
       << ",\"magnitude\":" << c.magnitude
       << ",\"full_chain\":" << (c.full_chain() ? "true" : "false") << ",";
    json_link(os, "iowait", c.iowait);
    json_link(os, "frozen_lb", c.frozen_lb);
    json_link(os, "queue_spike", c.queue_spike);
    json_link(os, "retransmits", c.retransmits);
    json_link(os, "sheds", c.sheds);
    json_link(os, "kv_quorum", c.kv_quorum);
    json_link(os, "cache_miss", c.cache_miss);
    os << "\"vlrts\":" << c.vlrts << "}";
  }
  os << "],\"kv\":{\"handoff_replays\":" << kv_handoff_replays
     << ",\"read_repairs\":" << kv_read_repairs
     << ",\"migrations\":" << kv_migrations << ",\"shards\":[";
  for (std::size_t i = 0; i < kv_shards.size(); ++i) {
    const KvShardSummary& s = kv_shards[i];
    if (i) os << ",";
    os << "{\"shard\":" << s.shard << ",\"ops\":" << s.ops
       << ",\"degraded_ops\":" << s.degraded_ops
       << ",\"mean_wait_ms\":" << s.mean_wait_ms
       << ",\"max_wait_ms\":" << s.max_wait_ms << "}";
  }
  os << "]},\"cache\":{\"hits\":" << cache_hit_events
     << ",\"misses\":" << cache_miss_events
     << ",\"invalidations\":" << cache_invalidation_events
     << ",\"invalidation_drops\":" << cache_invalidation_drops
     << ",\"coalesced\":" << cache_coalesced_events << "},\"vlrt\":[";
  for (std::size_t i = 0; i < vlrt.size(); ++i) {
    const VlrtAttribution& v = vlrt[i];
    if (i) os << ",";
    os << "{\"req\":" << v.request << ",\"response_ms\":" << v.response_ms
       << ",\"episode\":" << v.episode << ",\"dominant\":\""
       << to_string(v.dominant) << "\",\"hops_ms\":[" << v.hop_ms[0] << ","
       << v.hop_ms[1] << "," << v.hop_ms[2] << "," << v.hop_ms[3]
       << "],\"retransmissions\":" << v.retransmissions
       << ",\"tomcat\":" << v.tomcat << "}";
  }
  os << "]}\n";
}

}  // namespace ntier::millib
