// Offline causal-chain diagnosis over a cross-tier event trace.
//
// Input: the JSONL trace written by `ntier_run --trace FILE` (or any bench
// run with a trace path). Output: the reconstructed chain per OS episode —
// pdflush -> iowait spike -> frozen lb_value -> committed-queue spike ->
// retransmission cluster — plus a per-VLRT attribution table (which episode
// explains each very-long-response-time request and which hop dominated it).

#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "millib/causal_chain.h"
#include "obs/trace_io.h"
#include "probe/freshness.h"
#include "sim/fields.h"

namespace {

void usage(std::ostream& os) {
  os << R"(ntier_trace — causal-chain diagnosis of a cross-tier event trace

usage: ntier_trace TRACE.jsonl [flags]

  --window-ms X   queue-spike detection window            (default 50)
  --slack-ms X    episode-join temporal slack             (default 150)
  --vlrt-ms X     VLRT response-time threshold            (default 1000)
  --freeze-ms X   frozen-lb_value minimum gap             (default 100)
  --kv-slow-ms X  slow-KV-quorum wait threshold           (default 50)
  --probe-staleness-ms X  probe-result lifetime used for the freshness
                  stats; match the run's --probe-staleness (default 400)
  --compare-online  score the episodes the analysis's OnlineDetector
                  replay confirmed against its Tomcat-tier chains: matched
                  episodes, spurious detections, per-episode and median
                  detection latency
  --json FILE     also write the report as JSON ("-" = stdout)
  --quiet         suppress the human-readable report
  --help          this text

The trace is produced with:  ntier_run --trace run.jsonl
)";
}

}  // namespace

int main(int argc, char** argv) {
  std::string trace_path;
  std::string json_path;
  bool quiet = false;
  bool compare_online = false;
  ntier::millib::CausalChainConfig cfg;
  auto probe_staleness = ntier::sim::SimTime::millis(400);

  // --vlrt-ms and --kv-slow-ms read a checked time and keep it as a count
  // of ms; zero = not given.
  ntier::sim::SimTime vlrt, kv_slow;
  const auto flags = [&](auto&& row) {
    row("--quiet", quiet, ntier::sim::Switch{});
    row("--compare-online", compare_online, ntier::sim::Switch{});
    row("--json", json_path, ntier::sim::Text{});
    row("--window-ms", cfg.detector.window, ntier::sim::kMillis);
    row("--slack-ms", cfg.slack, ntier::sim::kMillis);
    row("--vlrt-ms", vlrt, ntier::sim::kMillis);
    row("--freeze-ms", cfg.detector.lb_freeze_min, ntier::sim::kMillis);
    row("--kv-slow-ms", kv_slow, ntier::sim::kMillis);
    row("--probe-staleness-ms", probe_staleness, ntier::sim::kMillis);
  };
  const std::vector<std::string> args(argv + 1, argv + argc);
  for (std::size_t i = 0; i < args.size(); ++i) {
    const std::string& a = args[i];
    const auto r = ntier::sim::apply_flag(flags, args, i);
    if (!r.error.empty()) {
      std::cerr << r.error << "\n";
      return 2;
    }
    if (r.status == ntier::sim::FlagResult::kApplied) {
      continue;
    } else if (a == "--help" || a == "-h") {
      usage(std::cout);
      return 0;
    } else if (!a.empty() && a[0] == '-') {
      std::cerr << "unknown flag: " << a << "\n";
      usage(std::cerr);
      return 2;
    } else if (trace_path.empty()) {
      trace_path = a;
    } else {
      std::cerr << "unexpected argument: " << a << "\n";
      return 2;
    }
  }
  if (trace_path.empty()) {
    usage(std::cerr);
    return 2;
  }
  if (vlrt > ntier::sim::SimTime::zero())
    cfg.detector.vlrt_threshold_ms = vlrt.to_millis();
  if (kv_slow > ntier::sim::SimTime::zero())
    cfg.kv_slow_quorum_ms = kv_slow.to_millis();

  std::vector<ntier::obs::TraceEvent> events;
  try {
    events = ntier::obs::read_jsonl_file(trace_path);
  } catch (const std::exception& err) {
    std::cerr << "cannot read trace " << trace_path << ": " << err.what()
              << "\n";
    return 1;
  }

  const auto report = ntier::millib::CausalChainAnalyzer(cfg).analyze(events);
  if (!quiet) report.print(std::cout);

  if (compare_online) {
    const auto& episodes = report.online_episodes;
    const auto score = ntier::millib::OnlineDetector::score(
        episodes, report.tomcat_truth_intervals());
    std::cout << "\nonline vs offline detection\n"
              << "  offline episodes (tomcat tier): " << score.truth << "\n"
              << "  matched online: " << score.matched << " ("
              << 100.0 * score.match_fraction() << "%), missed "
              << score.missed << ", spurious " << score.false_positives
              << "\n"
              << "  median detection latency: " << score.median_latency_ms()
              << " ms\n";
    for (const auto& ep : episodes) {
      std::cout << "  tomcat" << ep.node << " onset "
                << ep.onset.to_seconds() << " s, detected +"
                << ep.detection_latency_ms() << " ms, queue peak "
                << ep.queue_peak << ", iowait peak " << ep.iowait_peak
                << ", vlrts " << ep.vlrts << "\n";
    }
  }

  // Probe-freshness block, only for traces from probe-enabled runs.
  const auto freshness = ntier::probe::probe_freshness(events, probe_staleness);
  if (!quiet && freshness.any_probe_events()) {
    std::cout << "\nprobe freshness (staleness bound "
              << probe_staleness.to_millis() << " ms)\n"
              << "  probes: " << freshness.probes_sent << " sent ("
              << freshness.probes_per_sec << "/s), " << freshness.probe_replies
              << " replies, " << freshness.probe_timeouts << " timeouts\n"
              << "  pool expiry: " << freshness.expired_stale << " stale, "
              << freshness.expired_budget << " reuse-budget\n"
              << "  decisions: " << freshness.fresh_decisions
              << " probe-fresh (median staleness "
              << freshness.median_staleness_ms << " ms), "
              << freshness.fallback_decisions << " fallbacks\n";
  }
  if (!json_path.empty()) {
    if (json_path == "-") {
      report.to_json(std::cout);
    } else {
      std::ofstream f(json_path);
      if (!f) {
        std::cerr << "cannot write " << json_path << "\n";
        return 1;
      }
      report.to_json(f);
    }
  }
  return 0;
}
