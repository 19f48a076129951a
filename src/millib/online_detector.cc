#include "millib/online_detector.h"

#include <algorithm>
#include <cstdint>

namespace ntier::millib {

using obs::EventKind;
using obs::Tier;
using obs::TraceEvent;
using sim::SimTime;

namespace {
/// A spike run stays open across this many quiet windows.
constexpr int kRunMergeGap = 1;
/// Tomcat indices come from the int32 worker field of balancer events, but a
/// Tomcat's own events name it in the int16 node field, so no real Tomcat
/// index exceeds this. Larger ones are ignored rather than sized for.
constexpr int kMaxTomcat = INT16_MAX;
}  // namespace

double OnlineScore::median_latency_ms() const {
  if (latency_ms.empty()) return 0.0;
  std::vector<double> sorted = latency_ms;
  std::sort(sorted.begin(), sorted.end());
  const std::size_t mid = sorted.size() / 2;
  if (sorted.size() % 2) return sorted[mid];
  return 0.5 * (sorted[mid - 1] + sorted[mid]);
}

OnlineDetector::OnlineDetector(OnlineDetectorConfig config,
                               obs::TraceCollector* tail)
    : config_(config), tail_(tail) {
  if (config_.window.ns() <= 0) config_.window = SimTime::millis(50);
  if (config_.baseline_windows < 1) config_.baseline_windows = 1;
  if (config_.min_baseline < 1) config_.min_baseline = 1;
  if (config_.min_baseline > config_.baseline_windows)
    config_.min_baseline = config_.baseline_windows;
}

OnlineDetector::NodeState& OnlineDetector::node(int n) {
  const std::size_t idx = static_cast<std::size_t>(n);
  if (idx >= nodes_.size()) nodes_.resize(idx + 1);
  return nodes_[idx];
}

double OnlineDetector::baseline_median(const NodeState& st) const {
  std::vector<double> vals(st.baseline.begin(),
                           st.baseline.begin() +
                               static_cast<std::ptrdiff_t>(st.baseline_count));
  std::sort(vals.begin(), vals.end());
  const std::size_t mid = vals.size() / 2;
  if (vals.size() % 2) return vals[mid];
  return 0.5 * (vals[mid - 1] + vals[mid]);
}

bool OnlineDetector::frozen_now(const NodeState& st, SimTime now) const {
  // Every balancer that has ever ranked this worker has gone quiet on it:
  // nothing completed there for lb_freeze_min, so the value each policy acts
  // on is stale tier-wide. Requiring *all* copies frozen (not any) keeps the
  // quiet regime at zero false positives — a rarely-routed worker under a
  // sticky policy can legitimately starve one balancer's copy.
  if (st.last_lb.empty()) return false;
  for (const auto& [balancer, at] : st.last_lb)
    if (now - at < config_.lb_freeze_min) return false;
  return true;
}

void OnlineDetector::mark_episode(const OnlineEpisode& ep, SimTime t0,
                                  SimTime t1, int n) {
  if (!tail_) return;
  const SimTime cap = ep.onset + config_.mark_max;
  if (t1 > cap) t1 = cap;
  if (t0 >= t1) return;
  tail_->mark_range(t0, t1, n);
}

void OnlineDetector::evaluate_node(int n, NodeState& st, SimTime win_start,
                                   SimTime win_end) {
  const bool baseline_ready =
      st.baseline_count >= static_cast<std::size_t>(config_.min_baseline);
  bool spike = false;
  if (baseline_ready) {
    const double threshold =
        std::max(config_.queue_min_absolute,
                 config_.queue_median_multiplier * baseline_median(st));
    spike = st.window_max >= threshold;
  }

  if (spike) {
    if (st.open_run < 0) {
      st.open_run = static_cast<int>(spike_runs_.size());
      spike_runs_.push_back(SpikeRun{n, win_start, win_end, st.window_max});
    } else {
      SpikeRun& run = spike_runs_[static_cast<std::size_t>(st.open_run)];
      run.end = win_end;
      run.peak = std::max(run.peak, st.window_max);
    }
    st.run_quiet = 0;
  } else if (st.open_run >= 0 && ++st.run_quiet > kRunMergeGap) {
    st.open_run = -1;
    st.run_quiet = 0;
  }

  if (st.open_episode >= 0) {
    OnlineEpisode& ep = episodes_[static_cast<std::size_t>(st.open_episode)];
    if (spike) {
      ep.end = win_end;
      ep.queue_peak = std::max(ep.queue_peak, st.window_max);
      ep.iowait_peak = std::max(ep.iowait_peak, st.iowait_recent_peak);
      st.quiet_windows = 0;
      mark_episode(ep, win_start, win_end + config_.mark_post, n);
    } else if (++st.quiet_windows >= config_.close_after_quiet) {
      ep.closed = true;
      mark_episode(ep, ep.end, ep.end + config_.mark_post, n);
      st.open_episode = -1;
      st.quiet_windows = 0;
    }
  } else if (spike) {
    if (!st.candidate) {
      st.candidate = true;
      st.candidate_onset = win_start;
    }
    const SimTime horizon = st.candidate_onset - config_.evidence_slack;
    const bool saturated = st.saw_iowait_high && st.last_iowait_high >= horizon;
    const bool frozen = (st.saw_freeze && st.last_freeze_evidence >= horizon) ||
                        frozen_now(st, win_end);
    if (saturated && frozen) {
      OnlineEpisode ep;
      ep.node = n;
      ep.onset = st.candidate_onset;
      ep.detected_at = win_end;
      ep.end = win_end;
      ep.queue_peak = st.window_max;
      ep.iowait_peak = st.iowait_recent_peak;
      st.open_episode = static_cast<int>(episodes_.size());
      episodes_.push_back(ep);
      st.candidate = false;
      st.quiet_windows = 0;
      mark_episode(ep, ep.onset - config_.mark_pre,
                   win_end + config_.mark_post, n);
    }
  } else {
    // Spike lapsed without the full signature: drop the candidate. This is
    // the false-positive guard — a queue wobble with healthy iowait and a
    // live lb_value never becomes an episode.
    st.candidate = false;
  }

  // The committed count persists across windows, so the next window's max
  // starts from the current level, and the baseline ring absorbs this
  // window's max (spiky windows included; the median is robust to them).
  if (st.baseline.empty())
    st.baseline.assign(static_cast<std::size_t>(config_.baseline_windows), 0.0);
  st.baseline[st.baseline_next] = st.window_max;
  st.baseline_next = (st.baseline_next + 1) % st.baseline.size();
  st.baseline_count = std::min(st.baseline_count + 1, st.baseline.size());
  st.window_max = st.committed;
  st.iowait_recent_peak = 0;
}

void OnlineDetector::evaluate_window(std::int64_t w) {
  ++windows_evaluated_;
  const SimTime win_start = config_.window * w;
  const SimTime win_end = config_.window * (w + 1);
  for (std::size_t n = 0; n < nodes_.size(); ++n)
    evaluate_node(static_cast<int>(n), nodes_[n], win_start, win_end);
}

void OnlineDetector::roll_windows_to(std::int64_t w) {
  while (current_window_ < w) {
    evaluate_window(current_window_);
    ++current_window_;
  }
}

void OnlineDetector::attribute_vlrt(const TraceEvent& e) {
  if (tail_) tail_->mark_request(e.request);
  // Join the completion to the most recent overlapping episode (scan from
  // the back; episodes are in detection order).
  const SimTime slack = config_.evidence_slack;
  for (std::size_t i = episodes_.size(); i-- > 0;) {
    OnlineEpisode& ep = episodes_[i];
    if (ep.end + SimTime::seconds(2) < e.at && ep.closed) break;
    const bool open = !ep.closed;
    if (e.at >= ep.onset - slack && (open || e.at <= ep.end + slack)) {
      ++ep.vlrts;
      return;
    }
  }
}

void OnlineDetector::observe(const TraceEvent& e) {
  ++events_observed_;
  roll_windows_to(e.at.ns() / config_.window.ns());
  if (const int delta = obs::committed_delta(e)) {
    if (e.worker < 0 || e.worker > kMaxTomcat) return;
    NodeState& st = node(e.worker);
    st.committed += delta;
    st.window_max = std::max(st.window_max, st.committed);
    return;
  }
  switch (e.kind) {
    case EventKind::kIoWait: {
      if (e.tier != Tier::kTomcat || e.node < 0) break;
      NodeState& st = node(e.node);
      st.iowait_recent_peak = std::max(st.iowait_recent_peak, e.value);
      if (e.value >= config_.iowait_threshold) {
        st.saw_iowait_high = true;
        st.last_iowait_high = e.at;
      }
      break;
    }
    case EventKind::kLbValue: {
      if (e.tier != Tier::kBalancer || e.worker < 0 || e.worker > kMaxTomcat)
        break;
      NodeState& st = node(e.worker);
      auto [it, inserted] = st.last_lb.try_emplace(e.node, e.at);
      if (!inserted) {
        if (e.at - it->second >= config_.lb_freeze_min) {
          st.saw_freeze = true;
          st.last_freeze_evidence = e.at;
        }
        it->second = e.at;
      }
      break;
    }
    case EventKind::kClientDone:
      if (e.aux == 0 && e.value >= config_.vlrt_threshold_ms)
        attribute_vlrt(e);
      break;
    default:
      break;
  }
}

void OnlineDetector::finish(SimTime at) {
  roll_windows_to(at.ns() / config_.window.ns() + 1);
  for (std::size_t n = 0; n < nodes_.size(); ++n) {
    NodeState& st = nodes_[n];
    if (st.open_episode < 0) continue;
    OnlineEpisode& ep = episodes_[static_cast<std::size_t>(st.open_episode)];
    ep.closed = true;
    mark_episode(ep, ep.end, ep.end + config_.mark_post, static_cast<int>(n));
    st.open_episode = -1;
  }
}

OnlineScore OnlineDetector::score(
    const std::vector<OnlineEpisode>& episodes,
    const std::vector<std::vector<std::pair<SimTime, SimTime>>>& truth_by_node,
    SimTime slack) {
  OnlineScore s;
  std::vector<bool> episode_matched(episodes.size(), false);
  for (std::size_t n = 0; n < truth_by_node.size(); ++n) {
    for (const auto& [start, end] : truth_by_node[n]) {
      ++s.truth;
      const SimTime lo = start - slack;
      const SimTime hi = end + slack;
      bool matched = false;
      for (std::size_t i = 0; i < episodes.size(); ++i) {
        const OnlineEpisode& ep = episodes[i];
        if (ep.node != static_cast<int>(n)) continue;
        if (ep.onset > hi || ep.end < lo) continue;
        episode_matched[i] = true;
        if (!matched) {
          matched = true;
          s.latency_ms.push_back((ep.detected_at - start).to_millis());
        }
      }
      if (matched)
        ++s.matched;
      else
        ++s.missed;
    }
  }
  for (std::size_t i = 0; i < episodes.size(); ++i)
    if (!episode_matched[i]) ++s.false_positives;
  return s;
}

}  // namespace ntier::millib
