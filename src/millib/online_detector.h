#pragma once

#include <cstdint>
#include <map>
#include <utility>
#include <vector>

#include "obs/trace.h"
#include "sim/time.h"

namespace ntier::millib {

/// An iowait sample at/above this fraction is saturation evidence (for the
/// detector and for the CausalChainAnalyzer's iowait-spike hop).
inline constexpr double kIowaitThreshold = 0.5;

/// Tuning of the streaming millibottleneck detector: 50 ms windows, a 100 ms
/// lb_value freeze and a 1 s VLRT; the queue-spike and marking rules are
/// constants in online_detector.cc, the saturation rule is kIowaitThreshold.
/// The offline CausalChainAnalyzer replays its trace through this detector
/// and joins with the same thresholds.
struct OnlineDetectorConfig {
  /// Evaluation window (the paper's fine-grained monitoring granularity).
  sim::SimTime window = sim::SimTime::millis(50);
  /// All balancers silent on a worker for this long = frozen lb_value.
  sim::SimTime lb_freeze_min = sim::SimTime::millis(100);
  /// VLRT definition used to join late completions onto open episodes and
  /// to trigger the tail sampler's keep-this-request flush.
  double vlrt_threshold_ms = 1000.0;
};

/// One episode the detector flagged during the run. `onset` is the start of
/// the first spiking window (what detection latency is measured against);
/// `detected_at` is when the full signature — queue spike + saturation +
/// frozen lb_value — was confirmed, i.e. when an operator/controller could
/// have acted.
struct OnlineEpisode {
  int node = -1;
  sim::SimTime onset;
  sim::SimTime detected_at;
  sim::SimTime end;
  double queue_peak = 0;
  double iowait_peak = 0;
  std::uint64_t vlrts = 0;
  bool closed = false;

  double detection_latency_ms() const {
    return (detected_at - onset).to_millis();
  }
  bool operator==(const OnlineEpisode&) const = default;
};

/// A maximal run of windows in which one Tomcat's committed queue met the
/// queue-spike rule, merged across a single quiet window — the paper's §III-B
/// diagnosis signal ("large spikes ... are usually indicative of
/// bottlenecks") before iowait and lb_value evidence confirm an episode.
struct SpikeRun {
  int node = -1;
  sim::SimTime start;  // start of the first spiking window
  sim::SimTime end;    // end of the last spiking window
  double peak = 0;     // max committed queue inside the run

  bool operator==(const SpikeRun&) const = default;
};

/// Online-vs-ground-truth scorecard for one run.
struct OnlineScore {
  std::uint64_t truth = 0;
  std::uint64_t matched = 0;
  std::uint64_t missed = 0;
  std::uint64_t false_positives = 0;
  /// detected_at minus the truth episode's start, per matched episode.
  std::vector<double> latency_ms;

  double median_latency_ms() const;
  double match_fraction() const {
    return truth ? static_cast<double>(matched) / static_cast<double>(truth)
                 : 0.0;
  }
};

/// Streaming millibottleneck detection over the live event stream: a
/// TraceSink tracking per-Tomcat committed queues from balancer deltas,
/// kIoWait saturation and kLbValue freshness, and flagging episodes while
/// they happen. Pure function of the event stream: no RNG, no clocks, so runs
/// stay byte-deterministic and sweep results jobs-invariant, and the offline
/// CausalChainAnalyzer gets the same verdicts by replaying a recorded trace.
///
/// When a tail-sampling TraceCollector is attached, the detector marks
/// episode windows (node-scoped) and VLRT requests for retention — the
/// hindsight signal tail-based sampling is built on.
class OnlineDetector : public obs::TraceSink {
 public:
  explicit OnlineDetector(OnlineDetectorConfig config = {},
                          obs::TraceCollector* tail = nullptr);

  void observe(const obs::TraceEvent& e) override;
  /// Close the books at end of run (flush the last window, close open
  /// episodes at `at`).
  void finish(sim::SimTime at);

  const std::vector<OnlineEpisode>& episodes() const { return episodes_; }
  /// Every queue-spike run, confirmed or not, in the order the runs opened.
  const std::vector<SpikeRun>& spike_runs() const { return spike_runs_; }
  std::uint64_t events_observed() const { return events_observed_; }
  std::uint64_t windows_evaluated() const { return windows_evaluated_; }
  const OnlineDetectorConfig& config() const { return config_; }

  /// Score detected episodes against per-node ground-truth intervals
  /// (Experiment::flush_intervals, or offline analyzer episodes). A truth
  /// interval is matched when an episode on the same node overlaps it
  /// (± slack); episodes overlapping no truth interval are false positives.
  static OnlineScore score(
      const std::vector<OnlineEpisode>& episodes,
      const std::vector<std::vector<std::pair<sim::SimTime, sim::SimTime>>>&
          truth_by_node,
      sim::SimTime slack = sim::SimTime::millis(500));

 private:
  struct NodeState {
    double committed = 0;
    double window_max = 0;
    std::vector<double> baseline;  // trailing window maxima (ring)
    std::size_t baseline_next = 0;
    std::size_t baseline_count = 0;

    bool candidate = false;
    sim::SimTime candidate_onset;
    int open_episode = -1;  // index into episodes_
    int quiet_windows = 0;
    int open_run = -1;  // index into spike_runs_
    int run_quiet = 0;

    bool saw_iowait_high = false;
    sim::SimTime last_iowait_high;
    double iowait_recent_peak = 0;

    std::map<int, sim::SimTime> last_lb;  // balancer node -> last update
    bool saw_freeze = false;
    sim::SimTime last_freeze_evidence;
  };

  NodeState& node(int n);
  void roll_windows_to(std::int64_t w);
  void evaluate_window(std::int64_t w);
  void evaluate_node(int n, NodeState& st, sim::SimTime win_start,
                     sim::SimTime win_end);
  double baseline_median(const NodeState& st);
  bool frozen_now(const NodeState& st, sim::SimTime now) const;
  void attribute_vlrt(const obs::TraceEvent& e);
  /// mark_range clamped to the episode's [onset - kMarkPre, onset + kMarkMax]
  /// context budget.
  void mark_episode(const OnlineEpisode& ep, sim::SimTime t0, sim::SimTime t1,
                    int n);

  OnlineDetectorConfig config_;
  obs::TraceCollector* tail_ = nullptr;
  std::vector<NodeState> nodes_;
  std::vector<OnlineEpisode> episodes_;
  std::vector<SpikeRun> spike_runs_;
  std::vector<double> median_scratch_;  // baseline_median's working copy
  std::int64_t current_window_ = 0;
  std::uint64_t events_observed_ = 0;
  std::uint64_t windows_evaluated_ = 0;
};

}  // namespace ntier::millib
