// Extension: sticky sessions vs the remedies. mod_jk deployments routinely
// pin sessions to a jvmRoute; a pinned request *must* go to its owner even
// mid-millibottleneck, re-introducing exactly the queueing the current_load
// policy avoids. This quantifies the cost of stickiness under
// millibottlenecks, with and without sticky_session_force.
#include "bench_common.h"

using namespace ntier;
using namespace ntier::bench;

int main(int argc, char** argv) {
  const auto opt = BenchOptions::parse(argc, argv);
  header("Extension: sticky sessions",
         "session pinning vs the current_load remedy under millibottlenecks");

  struct Variant {
    const char* label;
    bool sticky;
    bool force;
  };
  const Variant variants[] = {
      {"current_load, no sessions", false, false},
      {"current_load + sticky (fallback allowed)", true, false},
      {"current_load + sticky_session_force", true, true},
  };

  std::cout << "\n";
  experiment::print_table1_header(std::cout);
  double base_queue = 0;
  for (const auto& v : variants) {
    ExperimentConfig cfg = cluster_config(opt, PolicyKind::kCurrentLoad,
                                          MechanismKind::kNonBlocking);
    cfg.sticky_sessions = v.sticky;
    cfg.balancer.sticky_force = v.force;
    auto e = run_experiment(opt, std::move(cfg), false);
    std::cout << e->log().summary_row(v.label) << "\n";
    const double peak = experiment::max_of(e->tomcat_tier_queue());
    if (!v.sticky) base_queue = peak;
    std::cout << "    tomcat-tier queue peak " << peak << ", balancer 503s "
              << experiment::summarize(*e).balancer_errors << "\n";
    if (v.sticky && v.force)
      paper_vs_measured("forced stickiness re-inflates the queue",
                        "(extension prediction)",
                        std::to_string(peak / (base_queue > 0 ? base_queue : 1)) +
                            "x the route-free peak");
  }
  std::cout << "\n(fallback-style stickiness costs little — a stalled owner is\n"
               " simply skipped — while sticky_session_force turns every\n"
               " millibottleneck into queueing or 503s for pinned sessions)\n";
  return 0;
}
