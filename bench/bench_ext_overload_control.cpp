// Extension: end-to-end overload control under millibottlenecks.
//
// The paper shows a 300 ms pdflush stall amplifying into multi-second VLRT
// requests because no tier ever says "no": work piles up in accept queues,
// is retransmitted into the stall, and is still executed seconds after the
// client stopped caring. This bench measures the three standard
// counter-measures (src/control) on exactly that scenario:
//
//   deadline   — requests carry a 1 s budget; every tier sheds expired work,
//   admission  — AIMD concurrency limiter at Apache + per-Tomcat with
//                priority brownout (RUBBoS writes/logins protected),
//   full       — both, plus CoDel sojourn shedding on the accept backlog.
//
// Headline metric is *goodput* (completions within deadline per second) and
// the p99.9 of admitted requests — overload control that merely swaps slow
// completions for rejections would show up as a goodput loss.
//
// Three scenarios:
//   1. Fig. 6 millibottleneck (4A/4T/1M, rotating pdflush stalls),
//   2. flash crowd: the same cluster with 6x bursty arrivals,
//   3. quiet regime: millibottlenecks off — overload control must cost
//      nothing here (goodput within 5% of the uncontrolled baseline).
//
// Every cell stamps deadlines (control::OverloadConfig::stamp_deadlines) so
// the no-control baseline reports a comparable goodput number without
// shedding anything.
#include <string>

#include "bench_common.h"
#include "control/overload.h"

using namespace ntier;
using namespace ntier::bench;

namespace {

struct Cell {
  std::string label;
  std::int64_t completed = 0;
  double goodput = 0, mean_ms = 0, p999_ms = 0, vlrt = 0;
  std::uint64_t sheds = 0, deadline_sheds = 0;
  double wasted_ms = 0;
};

ExperimentConfig overload_config(const BenchOptions& opt,
                                 control::OverloadMode mode,
                                 bool millibottlenecks) {
  ExperimentConfig cfg = cluster_config(opt, PolicyKind::kTotalRequest,
                                        MechanismKind::kBlocking,
                                        millibottlenecks);
  cfg.tracing = false;  // the request log and shed counters carry this bench
  cfg.overload = control::make_overload(mode, sim::SimTime::seconds(1));
  cfg.overload.stamp_deadlines = true;  // baseline reports goodput too
  // Identical workload in every cell: priorities are stamped (not drawn), so
  // enabling them everywhere keeps the RNG streams byte-identical while
  // giving brownout something to rank.
  cfg.workload.priority_mix = workload::PriorityMix::kRubbos;
  cfg.label = std::string("overload_") + control::to_string(mode);
  return cfg;
}

Cell run_cell(const BenchOptions& opt, const std::string& label,
              ExperimentConfig cfg) {
  Cell c;
  c.label = label;
  if (opt.sweep_seeds > 1) {
    const auto agg = run_sweep(opt, std::move(cfg), /*announce=*/false);
    c.completed = static_cast<std::int64_t>(agg.completed.mean + 0.5);
    c.goodput = agg.goodput_rps.mean;
    c.mean_ms = agg.mean_rt_ms.mean;
    c.p999_ms = agg.pooled_p999_ms();
    c.vlrt = agg.pooled_vlrt_fraction();
    c.sheds = static_cast<std::uint64_t>(agg.total_sheds.mean + 0.5);
    c.deadline_sheds =
        static_cast<std::uint64_t>(agg.deadline_sheds.mean + 0.5);
    c.wasted_ms = agg.wasted_work_avoided_ms.mean;
    return c;
  }
  auto e = run_experiment(opt, std::move(cfg), /*announce=*/false);
  const auto s = experiment::summarize(*e);
  c.completed = s.completed;
  c.goodput = s.goodput_rps;
  c.mean_ms = s.mean_rt_ms;
  c.p999_ms = s.p999_ms;
  c.vlrt = s.vlrt_fraction;
  c.sheds = s.total_sheds;
  c.deadline_sheds = s.deadline_sheds;
  c.wasted_ms = s.wasted_work_avoided_ms;
  return c;
}

void print_cells(const std::vector<Cell>& cells) {
  std::cout << "  " << std::left << std::setw(26) << "mode" << std::right
            << std::setw(10) << "completed" << std::setw(11) << "goodput/s"
            << std::setw(10) << "mean ms" << std::setw(11) << "p99.9 ms"
            << std::setw(9) << "VLRT %" << std::setw(9) << "sheds"
            << std::setw(13) << "avoided ms" << "\n";
  for (const Cell& c : cells) {
    std::cout << "  " << std::left << std::setw(26) << c.label << std::right
              << std::setw(10) << c.completed << std::fixed
              << std::setprecision(1) << std::setw(11) << c.goodput
              << std::setprecision(2) << std::setw(10) << c.mean_ms
              << std::setprecision(1) << std::setw(11) << c.p999_ms
              << std::setprecision(3) << std::setw(9) << 100 * c.vlrt
              << std::setw(9) << c.sheds << std::setprecision(0)
              << std::setw(13) << c.wasted_ms << "\n";
  }
}

}  // namespace

int main(int argc, char** argv) {
  const auto opt = BenchOptions::parse(argc, argv);
  header("Ext", "end-to-end overload control (deadlines, AIMD admission, CoDel)");

  using control::OverloadMode;
  const std::pair<const char*, OverloadMode> modes[] = {
      {"none (baseline)", OverloadMode::kNone},
      {"deadline only", OverloadMode::kDeadline},
      {"admission only", OverloadMode::kAdmission},
      {"full", OverloadMode::kFull},
  };

  // -- scenario 1: the Fig. 6 millibottleneck ---------------------------------
  std::cout << "\nscenario 1: Fig. 6 pdflush millibottleneck (4A/4T/1M)\n";
  std::vector<Cell> mb;
  for (const auto& [label, mode] : modes)
    mb.push_back(run_cell(opt, label, overload_config(opt, mode, true)));
  print_cells(mb);

  // -- scenario 2: flash crowd on top of the millibottleneck ------------------
  std::cout << "\nscenario 2: flash crowd (6x bursty arrivals + "
               "millibottleneck)\n";
  std::vector<Cell> crowd;
  for (const auto& [label, mode] : {modes[0], modes[3]}) {
    ExperimentConfig cfg = overload_config(opt, mode, true);
    cfg.bursty_workload = true;
    cfg.burst_multiplier = 6.0;
    cfg.label += "_flash";
    crowd.push_back(run_cell(opt, label, std::move(cfg)));
  }
  print_cells(crowd);

  // -- scenario 3: quiet regime (overload control must cost nothing) ----------
  std::cout << "\nscenario 3: quiet regime (millibottlenecks off)\n";
  std::vector<Cell> quiet;
  for (const auto& [label, mode] : {modes[0], modes[3]})
    quiet.push_back(run_cell(opt, label, overload_config(opt, mode, false)));
  print_cells(quiet);

  // -- acceptance -------------------------------------------------------------
  const Cell& base = mb.front();
  const Cell& full = mb.back();
  const bool vlrt_better = full.vlrt < base.vlrt;
  const bool tail_better = full.p999_ms < base.p999_ms;
  const double quiet_ratio =
      quiet[0].goodput > 0 ? quiet[1].goodput / quiet[0].goodput : 1.0;
  const bool quiet_ok = quiet_ratio >= 0.95;

  std::cout << "\n";
  paper_vs_measured("full-control VLRT fraction vs baseline",
                    "strictly below",
                    std::to_string(100 * full.vlrt) + "% vs " +
                        std::to_string(100 * base.vlrt) + "%");
  paper_vs_measured("full-control p99.9 vs baseline", "strictly below",
                    std::to_string(full.p999_ms) + " ms vs " +
                        std::to_string(base.p999_ms) + " ms");
  paper_vs_measured("quiet-regime goodput ratio", ">= 0.95",
                    std::to_string(quiet_ratio));
  std::cout << "\nverdict: full overload control "
            << (vlrt_better && tail_better ? "improves" : "does NOT improve")
            << " both VLRT fraction and p99.9 under the millibottleneck, "
            << (quiet_ok ? "and is" : "but is NOT")
            << " free in the quiet regime\n"
            << "(fixed seed => byte-deterministic; --seed N to vary, "
               "--sweep-seeds N --jobs J for mean+-CI, --quick for CI smoke, "
               "--full for paper scale)\n";
  return 0;
}
