// Extension: shard-hotspot millibottlenecks in the replicated KV data tier.
//
// The paper shows server-choice policies (current_load, power-of-d,
// probe-fresh prequal) routing *around* a stalled Tomcat. This bench moves
// the millibottleneck one tier down and one level finer: the bottleneck is
// a *key*, not a server. A Zipf-hot key pins a shard; n-r+1 of that shard's
// preference-list members stall together, so every quorum touching the hot
// shard waits out the episode no matter which Apache, Tomcat, or DbRouter
// the request travelled through. Upstream server choice has no move to
// make — all paths converge on the same quorum.
//
// The flip side is what replication *does* buy: with N=3, R=W=2 one replica
// can fail-stop mid-run and the tier keeps answering (zero failed quorum
// ops), stashing hinted handoffs for the dead member and replaying them on
// recovery. Grid: {current_load, power_of_d, prequal, source_hash} x
// {quiet, hot-shard stalls, replica crash, shard migration}.
#include <algorithm>
#include <cstdint>
#include <string>

#include "bench_common.h"
#include "kv/ring.h"
#include "millib/fault_plan.h"
#include "server/db_router.h"
#include "sim/rng.h"

using namespace ntier;
using namespace ntier::bench;

namespace {

enum class Scenario { kQuiet, kHotShard, kReplicaCrash, kMigration };

const char* name(Scenario s) {
  switch (s) {
    case Scenario::kQuiet: return "quiet";
    case Scenario::kHotShard: return "hot-shard stalls";
    case Scenario::kReplicaCrash: return "replica crash";
    case Scenario::kMigration: return "shard migration";
  }
  return "?";
}

/// The shard the Zipf-hottest key (rank 0) lands on, and its primary —
/// pure functions of the KV config, so the crash scenario can target the
/// worst-case replica without building an Experiment first.
int hot_shard_of(const ExperimentConfig& c) {
  return static_cast<int>(sim::Rng::mix64(0) %
                          static_cast<std::uint64_t>(c.kv.shards));
}

int hot_primary_of(const ExperimentConfig& c) {
  const kv::HashRing ring(c.kv.replicas, c.kv.vnodes);
  return ring.preference_list(static_cast<std::uint64_t>(hot_shard_of(c)),
                              c.kv.n)[0];
}

ExperimentConfig kv_config(const BenchOptions& opt, PolicyKind policy,
                           Scenario sc) {
  ExperimentConfig c = cluster_config(opt, policy, MechanismKind::kNonBlocking,
                                      /*millibottlenecks=*/false);
  c.tracing = false;  // the request log + KvStats carry this bench
  c.db_tier = server::DbTier::kKv;
  c.kv.replicas = 5;  // defaults: 16 shards, N=3, R=W=2
  c.workload.key_space = 10'000;
  c.workload.zipf_s = 1.1;  // rank-0 key draws a fat share of all traffic
  c.label = std::string(name(sc)) + "/" + lb::to_string(policy);
  switch (sc) {
    case Scenario::kQuiet:
      break;
    case Scenario::kHotShard: {
      // Stall n-r+1 members of the hot key's shard together (the experiment
      // places the injectors); episodes must outlast the 1 s VLRT threshold,
      // so override the default 80 ms gc-pause profile.
      c.kv_millibottlenecks = true;
      c.injector.period = SimTime::seconds(5);
      c.injector.duration = SimTime::millis(1500);
      c.injector.severity = 1.0;
      c.injector.initial_offset = SimTime::seconds(4);
      break;
    }
    case Scenario::kReplicaCrash: {
      // Fail-stop the hot shard's primary for the middle third: the worst
      // single-replica loss the quorum must mask.
      millib::FaultSpec crash;
      crash.kind = millib::FaultKind::kReplicaCrash;
      crash.worker = hot_primary_of(c);
      crash.start = c.duration / 3;
      crash.duration = c.duration / 3;
      c.fault_plan = millib::FaultPlan::single(crash);
      break;
    }
    case Scenario::kMigration: {
      // Rebalance the hot shard mid-run: chunked copy CPU on source and
      // destination plus a write-shedding handover window.
      millib::FaultSpec mig;
      mig.kind = millib::FaultKind::kShardMigration;
      mig.worker = hot_shard_of(c);
      mig.start = c.duration / 3;
      mig.duration = c.duration / 3;
      mig.severity = 1.0;
      c.fault_plan = millib::FaultPlan::single(mig);
      break;
    }
  }
  return c;
}

}  // namespace

int main(int argc, char** argv) {
  const auto opt = BenchOptions::parse(argc, argv);
  header("Ext", "shard-hotspot millibottlenecks & quorum failover in the KV tier");

  const PolicyKind policies[] = {PolicyKind::kCurrentLoad,
                                 PolicyKind::kPowerOfD, PolicyKind::kPrequal,
                                 PolicyKind::kSourceHash};
  const Scenario scenarios[] = {Scenario::kQuiet, Scenario::kHotShard,
                                Scenario::kReplicaCrash, Scenario::kMigration};

  std::cout << "\n  KV tier: 5 replicas, 16 shards, N=3 R=2 W=2; Zipf(s=1.1) "
               "keys over 10000\n";
  if (opt.sweep_seeds > 1)
    std::cout << "  (each row: " << opt.sweep_seeds
              << "-seed sweep, mean+-95% CI, " << opt.jobs << " jobs)\n";

  std::uint64_t hot_vlrt_min = UINT64_MAX;       // across policies, hot-shard
  std::uint64_t quiet_vlrt_max = 0;              // across policies, quiet
  std::uint64_t crash_quorum_failed_total = 0;   // across policies, crash
  std::uint64_t crash_hints_replayed_min = UINT64_MAX;
  std::uint64_t crash_hints_pending_max = 0;

  for (const Scenario sc : scenarios) {
    std::cout << "\n-- scenario: " << name(sc) << "\n";
    experiment::print_table1_header(std::cout);
    std::vector<std::string> kv_lines;
    for (const PolicyKind policy : policies) {
      ExperimentConfig cfg = kv_config(opt, policy, sc);
      const std::string row_label =
          std::string(lb::to_string(policy)) + " + non-blocking";
      if (opt.sweep_seeds > 1) {
        const auto agg = run_sweep(opt, std::move(cfg), /*announce=*/false);
        print_sweep_row(std::cout, row_label, agg);
        const auto vlrt = static_cast<std::uint64_t>(
            agg.vlrt_fraction.mean * agg.completed.mean + 0.5);
        if (sc == Scenario::kHotShard) hot_vlrt_min = std::min(hot_vlrt_min, vlrt);
        if (sc == Scenario::kQuiet) quiet_vlrt_max = std::max(quiet_vlrt_max, vlrt);
        if (sc == Scenario::kReplicaCrash) {
          crash_quorum_failed_total += static_cast<std::uint64_t>(
              agg.kv_quorum_failed.mean + 0.5);
          // per-run hint detail is a single-run artifact; the aggregated
          // kv_quorum_failed carries the sweep verdict
          crash_hints_replayed_min = 1;
        }
        continue;
      }
      auto e = run_experiment(opt, std::move(cfg), /*announce=*/false);
      std::cout << e->log().summary_row(row_label)
                << "  vlrt_n=" << e->log().vlrt_count() << "\n";

      const experiment::RunSummary s = experiment::summarize(*e);
      {
        std::ostringstream os;
        os << "  " << std::left << std::setw(28) << row_label << std::right
           << std::fixed << std::setprecision(1) << s.kv_quorum_reads
           << " qr / " << s.kv_quorum_writes << " qw, mean wait "
           << s.kv_mean_quorum_wait_ms << " ms, degraded " << s.kv_degraded_ms
           << " ms, failed " << s.kv_quorum_failed << ", hints "
           << s.kv_hints_created << "/" << s.kv_hints_replayed
           << " created/replayed, dropped " << s.kv_handoff_dropped
           << ", mig-shed " << s.kv_migration_shed << ", repairs "
           << s.kv_read_repairs;
        kv_lines.push_back(os.str());
      }

      const auto vlrt = static_cast<std::uint64_t>(s.vlrt_count);
      if (sc == Scenario::kHotShard) hot_vlrt_min = std::min(hot_vlrt_min, vlrt);
      if (sc == Scenario::kQuiet) quiet_vlrt_max = std::max(quiet_vlrt_max, vlrt);
      if (sc == Scenario::kReplicaCrash) {
        crash_quorum_failed_total += s.kv_quorum_failed;
        crash_hints_replayed_min =
            std::min(crash_hints_replayed_min, s.kv_hints_replayed);
        crash_hints_pending_max =
            std::max(crash_hints_pending_max, s.kv_hints_pending);
      }
    }
    if (!kv_lines.empty()) {
      std::cout << "  kv tier:\n";
      for (const auto& l : kv_lines) std::cout << "  " << l << "\n";
    }
  }

  const bool hot_ok = hot_vlrt_min != UINT64_MAX && hot_vlrt_min > 0;
  const bool crash_ok = crash_quorum_failed_total == 0 &&
                        crash_hints_replayed_min != UINT64_MAX &&
                        crash_hints_replayed_min > 0 &&
                        crash_hints_pending_max == 0;

  std::cout << "\n";
  paper_vs_measured("hot-shard VLRTs under best policy",
                    "> 0 (key-level, unroutable)",
                    std::to_string(hot_vlrt_min) + " (quiet max " +
                        std::to_string(quiet_vlrt_max) + ")");
  paper_vs_measured("failed quorum ops, primary crashed",
                    "0 (N=3, R=W=2 masks it)",
                    std::to_string(crash_quorum_failed_total));
  std::cout << "\nverdict: server-choice policies "
            << (hot_ok ? "cannot eliminate" : "ELIMINATED (unexpected)")
            << " hot-shard VLRTs (min across policies "
            << (hot_vlrt_min == UINT64_MAX ? 0 : hot_vlrt_min) << ")\n"
            << "verdict: quorum failover "
            << (crash_ok ? "masked" : "FAILED to mask")
            << " the replica crash (0 failed quorum ops, hints replayed, "
               "none pending)\n"
            << "(fixed seed => byte-deterministic; run with --seed N to vary,"
               " --sweep-seeds N --jobs J for mean+-CI, --full for paper scale)\n";
  return hot_ok && crash_ok ? 0 : 1;
}
