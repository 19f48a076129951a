// Extension: probe-driven load balancing under millibottlenecks.
//
// The paper's remedies (current_load, modified non-blocking get_endpoint)
// fix mod_jk's stale cumulative counters but still rank on state observed
// *at the balancer*. This bench asks the question the paper leaves open:
// does probe-fresh backend state — Prequal's hot/cold RIF rule or JSQ(d)
// over probed requests-in-flight — beat even the best remedy pair on the
// Fig. 6 scenario (4A/4T/1M, pdflush millibottlenecks rotating across the
// Tomcat tier)?
//
// Expected shape: the stock configuration shows double-digit mean RT and a
// large VLRT population; the remedy pair cuts both by an order of
// magnitude; the probing policies match or beat the remedy pair because a
// stalled Tomcat stops answering probes (or answers with a high RIF) and is
// routed around within one staleness window instead of after the queue has
// already built.
#include <sstream>

#include "bench_common.h"

using namespace ntier;
using namespace ntier::bench;

int main(int argc, char** argv) {
  const auto opt = BenchOptions::parse(argc, argv);
  header("Ext", "probe-driven policies (power_of_d, prequal) vs the paper's remedies");

  struct Row {
    const char* label;
    PolicyKind policy;
    MechanismKind mech;
  };
  const Row rows[] = {
      {"Stock (total_request + blocking)", PolicyKind::kTotalRequest,
       MechanismKind::kBlocking},
      {"Remedy pair (current_load + non-blocking)", PolicyKind::kCurrentLoad,
       MechanismKind::kNonBlocking},
      {"Two_choices + non-blocking", PolicyKind::kTwoChoices,
       MechanismKind::kNonBlocking},
      {"Power_of_d probing + non-blocking", PolicyKind::kPowerOfD,
       MechanismKind::kNonBlocking},
      {"Prequal probing + non-blocking", PolicyKind::kPrequal,
       MechanismKind::kNonBlocking},
  };

  double remedy_mean = 0, prequal_mean = 0;
  std::uint64_t remedy_vlrt = 0, prequal_vlrt = 0;

  std::cout << "\n";
  if (opt.sweep_seeds > 1)
    std::cout << "(each row: " << opt.sweep_seeds
              << "-seed sweep, mean+-95% CI, " << opt.jobs << " jobs)\n";
  experiment::print_table1_header(std::cout);
  std::vector<std::string> probe_lines;
  for (const auto& row : rows) {
    ExperimentConfig cfg = cluster_config(opt, row.policy, row.mech);
    cfg.tracing = false;  // request log + probe counters carry this bench
    cfg.label = row.label;
    if (opt.sweep_seeds > 1) {
      // Sweep mode: the probe-counter deep dive is a single-run artifact;
      // the sweep reports the policy comparison with confidence intervals.
      const auto agg = run_sweep(opt, std::move(cfg), /*announce=*/false);
      print_sweep_row(std::cout, row.label, agg);
      if (row.policy == PolicyKind::kCurrentLoad) {
        remedy_mean = agg.mean_rt_ms.mean;
        remedy_vlrt = static_cast<std::uint64_t>(
            agg.vlrt_fraction.mean * agg.completed.mean + 0.5);
      }
      if (row.policy == PolicyKind::kPrequal) {
        prequal_mean = agg.mean_rt_ms.mean;
        prequal_vlrt = static_cast<std::uint64_t>(
            agg.vlrt_fraction.mean * agg.completed.mean + 0.5);
      }
      continue;
    }
    auto e = run_experiment(opt, std::move(cfg), /*announce=*/false);
    std::cout << e->log().summary_row(row.label) << "  vlrt_n="
              << e->log().vlrt_count() << "\n";

    const experiment::RunSummary s = experiment::summarize(*e);
    if (s.probes_sent > 0) {
      std::ostringstream os;
      os << "  " << std::left << std::setw(44) << row.label << " "
         << s.probes_sent << " probes (" << s.probe_replies << " replies, "
         << s.probe_timeouts << " timed out), " << s.probes_piggybacked
         << " piggybacked reports, " << s.probe_picks
         << " probe-driven picks, " << s.probe_tiebreaks
         << " probed tie-breaks, " << s.probe_fallbacks
         << " current_load fallbacks, mean staleness at use "
         << std::fixed << std::setprecision(1) << s.probe_mean_staleness_ms
         << " ms";
      probe_lines.push_back(os.str());
    }

    if (row.policy == PolicyKind::kCurrentLoad) {
      remedy_mean = s.mean_rt_ms;
      remedy_vlrt = static_cast<std::uint64_t>(s.vlrt_count);
    }
    if (row.policy == PolicyKind::kPrequal) {
      prequal_mean = s.mean_rt_ms;
      prequal_vlrt = static_cast<std::uint64_t>(s.vlrt_count);
    }
  }

  if (!probe_lines.empty()) {
    std::cout << "\nprobe subsystem:\n";
    for (const auto& l : probe_lines) std::cout << l << "\n";
  }

  std::cout << "\n";
  paper_vs_measured("prequal mean RT vs remedy pair",
                    "<= (acceptance)",
                    std::to_string(prequal_mean) + " ms vs " +
                        std::to_string(remedy_mean) + " ms");
  paper_vs_measured("prequal VLRT count vs remedy pair", "comparable",
                    std::to_string(prequal_vlrt) + " vs " +
                        std::to_string(remedy_vlrt));
  std::cout << "\nverdict: prequal "
            << (prequal_mean <= remedy_mean ? "matches or beats"
                                            : "does NOT beat")
            << " the remedy pair on mean response time\n"
            << "(fixed seed => byte-deterministic; run with --seed N to vary,"
               " --sweep-seeds N --jobs J for mean+-CI, --full for paper scale)\n";
  return 0;
}
