// Extension: cache stampedes after invalidation storms — the hit-ratio vs
// VLRT frontier of the look-aside cache tier.
//
// PR 6 showed that a Zipf-hot key pins a shard and that no server-choice
// policy upstream can route around n-r+1 stalled shard members: the
// millibottleneck is a *key*, and every path converges on the same quorum.
// This bench layers the cache tier (src/cache) in front of that exact
// scenario and walks the frontier:
//   (a) a warm cache erases the hot-shard VLRTs — reads resolve at the
//       cache and never meet the stalled quorum;
//   (b) an invalidation storm (the kInvalidationStorm fault sweeping the
//       hottest keys through the bounded invalidation queues) re-exposes
//       the stalled shard under *every* policy, prequal included — the
//       cache can only protect keys it still holds;
//   (c) single-flight coalescing recovers most of the loss: one fill per
//       key per storm tick instead of a stampede of quorum reads piling
//       onto the stalled replicas' FIFOs and draining serially afterwards.
// Plus a cache-size x TTL frontier under one policy: how much memory and
// staleness budget it takes before the warm-cache regime kicks in.
//
// The workload is browse-only so the storm fault is the only invalidation
// source; organic writes would blur the warm-cache baseline.
#include <algorithm>
#include <cstdint>
#include <string>

#include "bench_common.h"
#include "millib/fault_plan.h"
#include "server/db_router.h"

using namespace ntier;
using namespace ntier::bench;

namespace {

enum class Scenario { kNoCache, kWarm, kStormNoCoalesce, kStormCoalesce };

const char* name(Scenario s) {
  switch (s) {
    case Scenario::kNoCache: return "no cache";
    case Scenario::kWarm: return "warm cache";
    case Scenario::kStormNoCoalesce: return "storm, no coalescing";
    case Scenario::kStormCoalesce: return "storm + coalescing";
  }
  return "?";
}

/// One invalidation storm overlapping each hot-shard stall window (the
/// injector stalls run [offset + k*period, +duration); the storm starts
/// 100 ms earlier and outlasts the stall, so the miss spike lands squarely
/// on the stalled quorum).
millib::FaultPlan storm_plan(const ExperimentConfig& c) {
  millib::FaultPlan plan;
  const SimTime storm_len = c.injector.duration + SimTime::millis(700);
  for (SimTime start = c.injector.initial_offset - SimTime::millis(100);
       start + storm_len < c.duration; start += c.injector.period) {
    millib::FaultSpec storm;
    storm.kind = millib::FaultKind::kInvalidationStorm;
    storm.start = start;
    storm.duration = storm_len;
    storm.severity = 4.0;  // sweep the 256 hottest ranks every tick
    plan.specs.push_back(storm);
  }
  return plan;
}

/// The PR 6 hot-shard scenario (n-r+1 members of the Zipf-hottest key's
/// shard stall together every 5 s) with the cache tier layered per scenario.
ExperimentConfig cache_config(const BenchOptions& opt, PolicyKind policy,
                              Scenario sc) {
  ExperimentConfig c = cluster_config(opt, policy, MechanismKind::kNonBlocking,
                                      /*millibottlenecks=*/false);
  c.tracing = false;  // the request log + CacheStats carry this bench
  // Ample worker threads and endpoint pools: requests parked on a stalled
  // quorum must not starve unrelated traffic of Apache/Tomcat slots, or the
  // upstream pool collapse (the PR 1 story) swamps the data-tier effect this
  // bench isolates.
  c.apache.max_clients = 4000;
  c.tomcat.max_threads = 4000;
  c.balancer.endpoint_pool_size = 2000;
  c.db_tier = server::DbTier::kKv;
  c.kv.replicas = 5;  // defaults: 16 shards, N=3, R=W=2
  c.workload.key_space = 10'000;
  c.workload.zipf_s = 1.1;
  c.workload.mix = workload::Mix::kBrowseOnly;
  // Every backing read pays the full miss-side demand (~1 ms with the scale
  // below): the KV tier is provisioned for the cache-hit regime, as
  // look-aside deployments are. A warm cache keeps it far below saturation;
  // a miss stampede of redundant fills drives the stalled members
  // supercritical — their post-stall drain can't outrun stuck arrivals, so
  // every waiter rides the queue past the VLRT bar. One coalesced fill per
  // key keeps that queue trivially short.
  c.workload.query_cache_hit = 0.0;
  c.workload.demand_scale = 2.0;
  c.kv_millibottlenecks = true;
  c.injector.period = SimTime::seconds(5);
  // The stall sits just over the 1 s VLRT bar: a waiter whose first lookup
  // lands at the stall's onset barely crosses it, so the VLRT count is
  // dominated by pile-up — the post-stall drain of queued reads (no cache)
  // or of redundant fills (storm without coalescing) congesting every
  // follow-up lookup. Coalescing keeps one fill per key in that queue,
  // which is exactly the loss it can recover.
  c.injector.duration = SimTime::millis(1010);
  c.injector.severity = 1.0;
  c.injector.initial_offset = SimTime::seconds(4);
  c.label = std::string(name(sc)) + "/" + lb::to_string(policy);
  switch (sc) {
    case Scenario::kNoCache:
      break;
    case Scenario::kWarm:
      c.cache_tier = true;
      break;
    case Scenario::kStormNoCoalesce:
      c.cache_tier = true;
      c.cache.coalesce = false;
      c.fault_plan = storm_plan(c);
      break;
    case Scenario::kStormCoalesce:
      c.cache_tier = true;
      c.fault_plan = storm_plan(c);
      break;
  }
  return c;
}

struct Cell {
  std::uint64_t vlrts = 0;
  double vlrt_fraction = 0.0;
  double hit_ratio = 0.0;
};

}  // namespace

int main(int argc, char** argv) {
  const auto opt = BenchOptions::parse(argc, argv);
  header("Ext", "cache stampedes after invalidation storms (hit ratio vs VLRT)");

  const PolicyKind policies[] = {PolicyKind::kCurrentLoad,
                                 PolicyKind::kPowerOfD, PolicyKind::kPrequal,
                                 PolicyKind::kSourceHash};
  const Scenario scenarios[] = {Scenario::kNoCache, Scenario::kWarm,
                                Scenario::kStormNoCoalesce,
                                Scenario::kStormCoalesce};

  std::cout << "\n  KV tier: 5 replicas, 16 shards, N=3 R=2 W=2; Zipf(s=1.1) "
               "browse-only keys over 10000\n  cache tier: 2 nodes, 64 MB "
               "each (whole key space fits), TTL 10 s\n  backing reads pay "
               "the full ~1 ms miss demand: the KV tier is provisioned for "
               "the\n  cache-hit regime, so the uncached baseline saturates "
               "and a miss stampede bites\n";
  if (opt.sweep_seeds > 1)
    std::cout << "  (each row: " << opt.sweep_seeds
              << "-seed sweep, mean+-95% CI, " << opt.jobs << " jobs)\n";

  std::uint64_t nocache_vlrt_min = UINT64_MAX;  // across policies
  double warm_vlrt_fraction_max = 0.0;
  std::uint64_t storm_vlrt_min = UINT64_MAX;  // no-coalesce, across policies
  std::uint64_t storm_off_total = 0;          // no-coalesce VLRTs summed
  std::uint64_t storm_on_total = 0;           // coalescing VLRTs summed
  double storm_hit_ratio_max = 0.0;
  double warm_hit_ratio_min = 1.0;

  for (const Scenario sc : scenarios) {
    std::cout << "\n-- scenario: " << name(sc) << "\n";
    experiment::print_table1_header(std::cout);
    std::vector<std::string> cache_lines;
    for (const PolicyKind policy : policies) {
      ExperimentConfig cfg = cache_config(opt, policy, sc);
      const std::string row_label =
          std::string(lb::to_string(policy)) + " + non-blocking";
      Cell cell;
      if (opt.sweep_seeds > 1) {
        const auto agg = run_sweep(opt, std::move(cfg), /*announce=*/false);
        print_sweep_row(std::cout, row_label, agg);
        cell.vlrts = static_cast<std::uint64_t>(
            agg.vlrt_fraction.mean * agg.completed.mean + 0.5);
        cell.vlrt_fraction = agg.vlrt_fraction.mean;
        const double lookups = agg.cache_hits.mean + agg.cache_misses.mean;
        cell.hit_ratio = lookups > 0 ? agg.cache_hits.mean / lookups : 0.0;
      } else {
        auto e = run_experiment(opt, std::move(cfg), /*announce=*/false);
        std::cout << e->log().summary_row(row_label)
                  << "  vlrt_n=" << e->log().vlrt_count() << "\n";
        const experiment::RunSummary s = experiment::summarize(*e);
        cell.vlrts = static_cast<std::uint64_t>(s.vlrt_count);
        cell.vlrt_fraction = s.vlrt_fraction;
        if (e->config().cache_tier) {
          cell.hit_ratio = s.cache_hit_ratio;
          std::ostringstream os;
          os << "  " << std::left << std::setw(28) << row_label << std::right
             << std::fixed << std::setprecision(3) << "hit ratio "
             << s.cache_hit_ratio << ", " << s.cache_hits << " hits / "
             << s.cache_misses << " misses, " << s.cache_coalesced_fills
             << " coalesced, inval " << s.cache_invalidations << " sent / "
             << s.cache_invalidations_dropped << " dropped, "
             << s.cache_storms << " storms";
          cache_lines.push_back(os.str());
        }
      }
      switch (sc) {
        case Scenario::kNoCache:
          nocache_vlrt_min = std::min(nocache_vlrt_min, cell.vlrts);
          break;
        case Scenario::kWarm:
          warm_vlrt_fraction_max =
              std::max(warm_vlrt_fraction_max, cell.vlrt_fraction);
          warm_hit_ratio_min = std::min(warm_hit_ratio_min, cell.hit_ratio);
          break;
        case Scenario::kStormNoCoalesce:
          storm_vlrt_min = std::min(storm_vlrt_min, cell.vlrts);
          storm_off_total += cell.vlrts;
          storm_hit_ratio_max = std::max(storm_hit_ratio_max, cell.hit_ratio);
          break;
        case Scenario::kStormCoalesce:
          storm_on_total += cell.vlrts;
          break;
      }
    }
    if (!cache_lines.empty()) {
      std::cout << "  cache tier:\n";
      for (const auto& l : cache_lines) std::cout << "  " << l << "\n";
    }
  }

  // ---- cache-size x TTL frontier under current_load -------------------------
  std::cout << "\n-- frontier: cache bytes x TTL (current_load, hot-shard "
               "stalls, no storm)\n";
  std::cout << "  " << std::setw(12) << "bytes" << std::setw(10) << "ttl_ms"
            << std::setw(12) << "hit_ratio" << std::setw(12) << "vlrt_%"
            << std::setw(10) << "vlrt_n" << "\n";
  const std::uint64_t sizes[] = {64ull << 10, 1ull << 20, 64ull << 20};
  const double ttls_ms[] = {500, 2000, 10000};
  for (const std::uint64_t bytes : sizes) {
    for (const double ttl_ms : ttls_ms) {
      ExperimentConfig cfg =
          cache_config(opt, PolicyKind::kCurrentLoad, Scenario::kWarm);
      cfg.cache.bytes = bytes;
      cfg.cache.ttl = SimTime::from_millis(ttl_ms);
      cfg.label = "frontier/" + std::to_string(bytes >> 10) + "k/" +
                  std::to_string(static_cast<int>(ttl_ms)) + "ms";
      const experiment::RunSummary s = experiment::summarize(
          *run_experiment(opt, std::move(cfg), /*announce=*/false));
      std::cout << "  " << std::setw(12) << bytes << std::setw(10)
                << static_cast<int>(ttl_ms) << std::setw(12) << std::fixed
                << std::setprecision(3) << s.cache_hit_ratio << std::setw(12)
                << std::setprecision(3) << s.vlrt_fraction * 100.0
                << std::setw(10) << s.vlrt_count << "\n";
    }
  }

  const bool warm_ok =
      nocache_vlrt_min != UINT64_MAX && nocache_vlrt_min > 0 &&
      warm_vlrt_fraction_max < 0.002 && warm_hit_ratio_min > 0.9;
  const bool storm_ok = storm_vlrt_min != UINT64_MAX && storm_vlrt_min > 0;
  const bool coalesce_ok =
      storm_off_total > 0 && storm_on_total * 2 <= storm_off_total;

  std::cout << "\n";
  paper_vs_measured("hot-shard VLRT fraction, warm cache",
                    "~0% (reads never meet the quorum)",
                    std::to_string(warm_vlrt_fraction_max * 100.0) +
                        "% max (no-cache min vlrt_n " +
                        std::to_string(nocache_vlrt_min) + ")");
  paper_vs_measured("storm VLRTs under best policy",
                    "> 0 (cache cannot hold swept keys)",
                    std::to_string(storm_vlrt_min));
  paper_vs_measured("storm VLRTs, coalescing on vs off",
                    "<= half (one fill per key)",
                    std::to_string(storm_on_total) + " vs " +
                        std::to_string(storm_off_total));
  std::cout << "\nverdict: warm cache "
            << (warm_ok ? "erased" : "FAILED to erase")
            << " hot-shard VLRTs (max fraction "
            << warm_vlrt_fraction_max * 100.0 << "%, min hit ratio "
            << warm_hit_ratio_min << ")\n"
            << "verdict: invalidation storm "
            << (storm_ok ? "reintroduced" : "did NOT reintroduce")
            << " VLRTs under every policy (min across policies "
            << (storm_vlrt_min == UINT64_MAX ? 0 : storm_vlrt_min) << ")\n"
            << "verdict: single-flight coalescing "
            << (coalesce_ok ? "cut storm VLRTs by at least half"
                            : "FAILED to halve storm VLRTs")
            << " (" << storm_on_total << " vs " << storm_off_total << ")\n"
            << "(fixed seed => byte-deterministic; run with --seed N to vary,"
               " --sweep-seeds N --jobs J for mean+-CI, --full for paper scale)\n";
  return warm_ok && storm_ok && coalesce_ok ? 0 : 1;
}
