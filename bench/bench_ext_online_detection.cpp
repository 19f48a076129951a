// Extension: online millibottleneck detection + tail-based trace sampling
// on the paper's Figure 6 scenario (total_request + blocking get_endpoint +
// pdflush millibottlenecks).
//
// Three runs, all the same seed:
//   1. full trace + streaming detector  -> score the online episodes against
//      the offline CausalChainAnalyzer (matched fraction, spurious count,
//      per-episode and median detection latency);
//   2. quiet regime (millibottlenecks off) -> the detector must stay silent;
//   3. tail-sampled trace -> volume reduction vs run 1's full trace, and the
//      guarantee that every VLRT-attributed chain survived end to end.
#include "bench_common.h"

#include <unordered_map>
#include <unordered_set>

#include "millib/causal_chain.h"
#include "millib/online_detector.h"

using namespace ntier;
using namespace ntier::bench;

namespace {

/// std::streambuf that counts bytes and discards them — lets us measure
/// serialized trace volume without materialising hundreds of MB.
class CountingBuf : public std::streambuf {
 public:
  std::uint64_t bytes = 0;

 protected:
  int overflow(int c) override {
    if (c != EOF) ++bytes;
    return c;
  }
  std::streamsize xsputn(const char*, std::streamsize n) override {
    bytes += static_cast<std::uint64_t>(n);
    return n;
  }
};

std::uint64_t trace_bytes(const obs::TraceCollector& trace) {
  CountingBuf buf;
  std::ostream os(&buf);
  obs::write_trace(os, trace, obs::TraceFormat::kJsonl);
  return buf.bytes;
}

void verdict(const std::string& what, bool pass, const std::string& bound) {
  std::cout << "verdict: " << what << " -- " << (pass ? "PASS" : "FAIL")
            << " (" << bound << ")\n";
}

}  // namespace

int main(int argc, char** argv) {
  const auto opt = BenchOptions::parse(argc, argv);
  header("Extension", "online millibottleneck detection + tail-based sampling");

  bool all_pass = true;

  // -- run 1: full trace + online detector -------------------------------------
  ExperimentConfig base =
      cluster_config(opt, PolicyKind::kTotalRequest, MechanismKind::kBlocking);
  base.event_trace = true;
  base.online_detect = true;
  // Size the ring for the whole run (~110k events/s at this scale), capped so
  // --full does not ask for paper-scale gigabytes; if the ring still wraps,
  // the comparison below is restricted to the retained window.
  base.trace_capacity = std::min<std::size_t>(
      static_cast<std::size_t>(base.duration.to_seconds() * 200'000.0) + 1,
      8u << 20);

  auto full = run_experiment(opt, base);
  const auto events = full->trace()->snapshot();
  const auto report = millib::CausalChainAnalyzer().analyze(events);

  // Episodes detected before the ring's retained window opened cannot be
  // scored against the (truncated) offline analysis.
  std::vector<millib::OnlineEpisode> scored;
  const sim::SimTime window_open = events.empty() ? sim::SimTime{} : events.front().at;
  for (const auto& ep : full->online_detector()->episodes())
    if (ep.onset >= window_open) scored.push_back(ep);
  const auto score =
      millib::OnlineDetector::score(scored, report.tomcat_truth_intervals());

  std::cout << "\nonline vs offline detection (same run, same thresholds)\n"
            << "  offline episodes (tomcat tier): " << score.truth << "\n"
            << "  matched online: " << score.matched << " ("
            << std::fixed << std::setprecision(1)
            << 100.0 * score.match_fraction() << "%), missed " << score.missed
            << ", spurious " << score.false_positives << "\n"
            << "  median detection latency: " << std::setprecision(0)
            << score.median_latency_ms() << " ms\n";
  std::cout << "  per-episode detection latency:\n";
  for (const auto& ep : scored)
    std::cout << "    tomcat" << ep.node << " onset " << std::setprecision(2)
              << ep.onset.to_seconds() << " s, detected +"
              << std::setprecision(0) << ep.detection_latency_ms()
              << " ms, queue peak " << ep.queue_peak << ", vlrts " << ep.vlrts
              << "\n";

  const bool matched_ok = score.truth > 0 && score.match_fraction() >= 0.9;
  const bool latency_ok = score.median_latency_ms() <= 250.0;
  all_pass &= matched_ok && latency_ok;

  // -- run 2: quiet regime -----------------------------------------------------
  ExperimentConfig quiet = cluster_config(
      opt, PolicyKind::kTotalRequest, MechanismKind::kBlocking,
      /*millibottlenecks=*/false);
  quiet.online_detect = true;
  auto calm = run_experiment(opt, quiet);
  const std::uint64_t quiet_eps = experiment::summarize(*calm).online_episodes;
  std::cout << "\nquiet regime (millibottlenecks off): " << quiet_eps
            << " episodes flagged\n";
  const bool quiet_ok = quiet_eps == 0;
  all_pass &= quiet_ok;

  // -- run 3: tail-sampled trace, same seed ------------------------------------
  ExperimentConfig tail_cfg = base;
  tail_cfg.trace_tail.enabled = true;
  auto tail = run_experiment(opt, tail_cfg);
  const auto* tt = tail->trace();
  const experiment::RunSummary tail_summary = experiment::summarize(*tail);
  const std::uint64_t full_bytes = trace_bytes(*full->trace());
  const std::uint64_t tail_bytes = trace_bytes(*tt);
  const double byte_fraction =
      full_bytes ? static_cast<double>(tail_bytes) /
                       static_cast<double>(full_bytes)
                 : 0.0;
  std::cout << "\ntail-based sampling (identical seed, detector-triggered "
               "retention)\n"
            << "  events: kept " << tail_summary.trace_events_kept << " of "
            << tail_summary.trace_events_seen << " (" << std::setprecision(1)
            << 100.0 * tail_summary.trace_kept_fraction << "%)\n"
            << "  bytes (jsonl): " << tail_bytes << " of " << full_bytes << " ("
            << 100.0 * byte_fraction << "%)\n";

  // Every VLRT the offline analyzer attributed to an episode must survive
  // sampling with its whole event chain. The two runs share a seed, so the
  // full run's per-request event counts are the ground truth.
  std::unordered_set<std::uint64_t> attributed;
  for (const auto& v : report.vlrt)
    if (v.episode >= 0) attributed.insert(v.request);
  std::unordered_map<std::uint64_t, std::uint64_t> want;
  for (const auto& e : events)
    if (e.request != 0 && attributed.count(e.request)) ++want[e.request];
  std::unordered_map<std::uint64_t, std::uint64_t> got;
  tt->for_each([&](const obs::TraceEvent& e) {
    if (e.request != 0 && attributed.count(e.request)) ++got[e.request];
  });
  std::uint64_t retained = 0;
  for (const auto& [req, n] : want)
    if (got[req] == n) ++retained;
  std::cout << "  VLRT-attributed chains retained end to end: " << retained
            << "/" << want.size() << "\n\n";
  const bool bytes_ok = byte_fraction <= 0.10;
  const bool chains_ok = retained == want.size() && !want.empty();
  all_pass &= bytes_ok && chains_ok;

  // -- verdicts ----------------------------------------------------------------
  {
    std::ostringstream s;
    s << "online detector matched " << score.matched << "/" << score.truth
      << " offline episodes (" << std::fixed << std::setprecision(1)
      << 100.0 * score.match_fraction() << "%)";
    verdict(s.str(), matched_ok, ">=90% required");
  }
  {
    std::ostringstream s;
    s << "median detection latency " << std::fixed << std::setprecision(0)
      << score.median_latency_ms() << " ms";
    verdict(s.str(), latency_ok, "<=250 ms required");
  }
  {
    std::ostringstream s;
    s << "zero false positives in the quiet regime (" << quiet_eps
      << " episodes)";
    verdict(s.str(), quiet_ok, "0 required");
  }
  {
    std::ostringstream s;
    s << "tail sampling kept " << std::fixed << std::setprecision(1)
      << 100.0 * byte_fraction << "% of full trace bytes";
    verdict(s.str(), bytes_ok, "<=10% required");
  }
  {
    std::ostringstream s;
    s << "tail sampling retained " << retained << "/" << want.size()
      << " VLRT-attributed chains";
    verdict(s.str(), chains_ok, "100% required");
  }
  return all_pass ? 0 : 1;
}
