// Extension: the paper's conclusion — "Other load balancers in N-tier
// systems can take advantage of our remedies" — applied to the Tomcat→MySQL
// connection layer. Two MySQL replicas, pdflush active on the DB nodes
// (binlog/redo writes as dirty-page fuel), and the DB router run both ways:
// the classic condvar pool + cumulative policy vs. current_load + fail-fast.
#include "bench_common.h"

using namespace ntier;
using namespace ntier::bench;

int main(int argc, char** argv) {
  const auto opt = BenchOptions::parse(argc, argv);
  header("Extension: DB-tier balancing",
         "2 MySQL replicas with millibottlenecks; stock vs aware DB router");

  auto base = [&] {
    ExperimentConfig cfg = cluster_config(opt, PolicyKind::kCurrentLoad,
                                          MechanismKind::kNonBlocking,
                                          /*millibottlenecks=*/false);
    cfg.num_mysql = 2;
    cfg.mysql_millibottlenecks = true;
    cfg.mysql.log_bytes_per_query = 1200;
    cfg.db_router.pool_per_replica = 24;  // Table III's 48, split
    cfg.tracing = false;
    return cfg;
  };

  std::cout << "\n";
  experiment::print_table1_header(std::cout);

  auto stock_cfg = base();
  stock_cfg.db_router.policy = PolicyKind::kTotalRequest;
  stock_cfg.db_router.mechanism = MechanismKind::kQueueing;
  auto stock = run_experiment(opt, std::move(stock_cfg), false);
  std::cout << stock->log().summary_row("DB router: total_request + queueing pool")
            << "\n";

  auto aware_cfg = base();
  aware_cfg.db_router.policy = PolicyKind::kCurrentLoad;
  aware_cfg.db_router.mechanism = MechanismKind::kNonBlocking;
  auto aware = run_experiment(opt, std::move(aware_cfg), false);
  std::cout << aware->log().summary_row("DB router: current_load + fail-fast")
            << "\n";

  std::cout << "\nDB-side detail:\n";
  const experiment::RunSummary stock_sum = experiment::summarize(*stock);
  const experiment::RunSummary aware_sum = experiment::summarize(*aware);
  for (const auto* s : {&stock_sum, &aware_sum}) {
    std::cout << "  replicas served " << s->mysql_queries[0] << " / "
              << s->mysql_queries[1] << " queries, router errors "
              << s->db_router_errors << ", mean RT " << s->mean_rt_ms
              << " ms\n";
  }
  paper_vs_measured(
      "remedies transfer to other balancers", "claimed (§VIII)",
      std::to_string(stock_sum.mean_rt_ms / aware_sum.mean_rt_ms) +
          "x RT improvement");
  return 0;
}
