#include "cli/cli.h"

#include <charconv>
#include <cmath>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <memory>

#include "control/overload.h"
#include "experiment/chaos.h"
#include "experiment/experiment.h"
#include "lb/probe_policy.h"
#include "experiment/report.h"
#include "experiment/summary.h"
#include "experiment/sweep.h"
#include "workload/trace.h"
#include "workload/trace_gen.h"

namespace ntier::cli {

namespace {

bool parse_int(const std::string& s, long long& out) {
  const char* begin = s.data();
  const char* end = begin + s.size();
  auto [ptr, ec] = std::from_chars(begin, end, out);
  return ec == std::errc() && ptr == end;
}

// from_chars, not std::stod: stod honours the global locale (a comma-decimal
// locale breaks "--zipf-s 0.8") and accepts trailing garbage ("1.5abc").
// "nan"/"inf" parse but make no sense as flag values, so reject them too.
bool parse_double(const std::string& s, double& out) {
  const char* begin = s.data();
  const char* end = begin + s.size();
  auto [ptr, ec] = std::from_chars(begin, end, out);
  return ec == std::errc() && ptr == end && std::isfinite(out);
}

std::optional<lb::MechanismKind> parse_mechanism(const std::string& s) {
  using lb::MechanismKind;
  if (s == "blocking") return MechanismKind::kBlocking;
  if (s == "modified" || s == "non_blocking") return MechanismKind::kNonBlocking;
  if (s == "queueing") return MechanismKind::kQueueing;
  return std::nullopt;
}

std::optional<experiment::StallSource> parse_source(const std::string& s) {
  using experiment::StallSource;
  if (s == "pdflush") return StallSource::kPdflush;
  if (s == "gc") return StallSource::kGcPause;
  if (s == "dvfs") return StallSource::kDvfs;
  if (s == "vm") return StallSource::kVmConsolidation;
  return std::nullopt;
}

/// --sweep-seeds path: replicate the fully-resolved config (chaos and
/// resilience already merged in) across derived seeds and report the
/// cross-run statistics instead of a single RunSummary.
int run_sweep(const CliOptions& options, experiment::ExperimentConfig cfg) {
  experiment::SweepConfig sc;
  sc.base = std::move(cfg);
  sc.num_runs = options.sweep_seeds;
  sc.jobs = options.jobs;
  if (!options.quiet)
    std::cout << "sweeping " << sc.num_runs << " seeds ("
              << options.jobs << " jobs) of " << experiment::describe(sc.base)
              << "\n";
  experiment::SweepRunner runner(std::move(sc));
  const experiment::AggregateSummary agg = runner.run();
  if (!options.quiet) agg.print_table(std::cout);
  if (!options.json_path.empty()) {
    std::ofstream f(options.json_path);
    if (!f) {
      std::cerr << "cannot write " << options.json_path << "\n";
      return 1;
    }
    agg.to_json(f);
  }
  if (!options.csv_dir.empty()) {
    try {
      std::filesystem::create_directories(options.csv_dir);
      std::ofstream a(options.csv_dir + "/sweep_aggregate.csv");
      std::ofstream r(options.csv_dir + "/sweep_runs.csv");
      if (!a || !r) throw std::runtime_error("cannot open output file");
      agg.to_csv(a);
      agg.per_run_csv(r);
    } catch (const std::exception& err) {
      std::cerr << "cannot write sweep CSVs under --csv dir '"
                << options.csv_dir << "': " << err.what() << "\n";
      return 1;
    }
  }
  return 0;
}

}  // namespace

std::string usage_text() {
  return R"(ntier_run — n-tier millibottleneck load-balancing simulator

usage: ntier_run [flags]

topology / scale
  --full                 paper scale (70 000 clients, 180 s)
  --clients N            closed-loop client count     (default 7000)
  --think-ms X           mean think time in ms        (default 700)
  --duration-s X         simulated seconds            (default 60)
  --apaches N            web servers                  (default 4)
  --tomcats N            application servers          (default 4)
  --mysql N              database replicas            (default 1)
  --seed N               RNG seed                     (default 42)

data tier
  --db-tier T            mysql (default) | kv — replace the single-primary
                         MySQL with the replicated sharded KV store (src/kv)
  --kv CFG               KV topology/quorum as key=value pairs: replicas,
                         shards, vnodes, n, r, w, hints
                         (e.g. replicas=5,n=3,r=2,w=2; requires --db-tier kv)
  --zipf-s X             Zipf skew of key popularity  (default 0.8)
  --key-space N          distinct keys drawn by the workload
                         (default 10000 in kv mode)
  --kv-millibottlenecks  correlated injector stalls on n-r+1 members of the
                         hot key's shard (quorum cannot mask the episode)

cache tier (look-aside cache over the KV tier; requires --db-tier kv)
  --cache-tier           interpose per-node LRU+TTL caches between the
                         Tomcat tier and the KV quorum, with invalidate-on-
                         write broadcast and single-flight fill coalescing
  --cache CFG            cache geometry as key=value pairs: nodes, bytes,
                         entry, ttl_ms, inval_queue, coalesce
                         (e.g. nodes=2,bytes=67108864,ttl_ms=10000)
  --cache-bytes N        memory per cache node in bytes
  --cache-ttl-ms X       entry time-to-live in ms (the staleness backstop
                         for dropped invalidations)
  --cache-coalesce B     on | off — single-flight fill coalescing

policy & mechanism under test
  --policy P             total_request | total_traffic | current_load |
                         sessions | round_robin | random | two_choices |
                         power_of_d (alias po2d) | prequal
  --mechanism M          blocking | modified | queueing
  --sticky               enable sticky sessions
  --db-policy P          replica-selection policy for the DB router
  --db-mechanism M       blocking | modified | queueing (default)

probing (power_of_d / prequal; auto-enabled by those policies)
  --probe-rate X         probe ticks per second       (default 50)
  --probe-d N            targets probed per tick      (default 3)
  --probe-staleness X    probe result lifetime in ms  (default 400)

millibottleneck environment
  --no-millibottlenecks  pristine environment (Fig. 1 baseline)
  --stall-source S       pdflush | gc | dvfs | vm
  --bursty X             bursty arrivals with multiplier X
  --mix M                read_write | browse_only

multi-seed sweeps
  --sweep-seeds N        run N replicas with per-replica derived seeds and
                         report mean ± 95% CI per metric plus a pooled
                         latency distribution (composable with trace replay;
                         incompatible with --record-trace / --trace)
  --jobs J               sweep worker threads (default 1); the aggregate
                         output is byte-identical for every J

fault injection & resilience
  --chaos                inject a seeded randomized fault schedule (crashes,
                         link faults, pool leaks, disk degradation, stalls)
  --chaos-seed N         fault-schedule seed (implies --chaos, default 1)
  --resilience           health probing + circuit breaker + budgeted retries
  --gray-fault K         data_path | link | replica — schedule one seeded
                         gray fault: the data path degrades while health
                         probes, the circuit breaker and piggybacked load
                         reports keep seeing a healthy node (replica
                         requires --db-tier kv; composes with --chaos)
  --recovery MODE        on | off (default) — recovery orchestration:
                         declare sustained-degradation episodes against the
                         run's own baseline and apply staged interventions
                         (retry suppression, hard shedding, cache refill
                         gating, breaker reset at step-down)

overload control
  --overload MODE        none | deadline | admission | codel | full —
                         deadline propagation, AIMD admission limiting, and
                         CoDel sojourn shedding across all tiers
  --deadline-ms X        client response-time budget (default 1000; only
                         with --overload deadline|full)
  --priority-mix M       uniform | rubbos — rubbos stamps per-interaction
                         brownout priorities (only with --overload
                         admission|full)

traces (arrival traces: CSV "at_ns,client,interaction[,key,priority]")
  --record-trace FILE    save the run's arrival trace, rich schema (data key
                         + brownout priority ride along)
  --replay-trace FILE    drive the run open-loop from a saved trace
                         (replaces the closed-loop clients; rich traces
                         replay the recorded keys/priorities exactly)
  --trace-replay FILE    alias of --replay-trace
  --trace-gen SPEC       synthesize a production-shaped trace and replay it
                         in-process; SPEC is key=value pairs: seed, duration,
                         base-rps, diurnal-amplitude, diurnal-period,
                         flash-at, flash-duration, flash-multiplier,
                         session-mean, think-mean, abandon-p
                         (e.g. duration=60,base-rps=2000,diurnal-amplitude=0.3,
                         flash-at=30,flash-multiplier=2)
  --trace-out FILE       with --trace-gen: write the generated trace to FILE
                         and exit without running (a replayable artifact)
  --replay-timeout-ms X  open-loop client patience: replayed requests
                         unanswered this long are abandoned (default: wait
                         forever)
  --replay-scale X       time-scale the trace before replay (0.5 = 2x rate)
  --trace FILE           write the cross-tier event trace (client sends,
                         SYN retransmits, backlog drops, get_endpoint
                         polling, backend service, pdflush episodes, ...)
  --trace-format F       jsonl (default; ntier_trace's input) | chrome
                         (Perfetto / chrome://tracing)

observability
  --telemetry            streaming per-tier instruments (multi-resolution
                         timelines + per-window quantile sketches); adds
                         sketch quantiles to the summary and, with --csv,
                         writes telemetry.csv
  --detect               online millibottleneck detection during the run,
                         scored against the causal-chain ground truth
  --trace-sample S       full (default) | tail — tail keeps only
                         detector-marked episode windows, VLRT requests
                         end to end and a deterministic head sample
                         (requires --detect and --trace)

output
  --json FILE            write the run summary as JSON
  --csv DIR              dump tier queue/VLRT series as CSV
  --quiet                suppress the human-readable report
  --help                 this text
)";
}

ParseResult parse_cli(const std::vector<std::string>& args) {
  CliOptions o;
  o.config = experiment::ExperimentConfig::scaled(0.1);
  o.config.label = "ntier_run";

  auto fail = [](const std::string& msg) {
    ParseResult r;
    r.error = msg;
    return r;
  };

  bool overload_set = false;
  control::OverloadMode overload_mode = control::OverloadMode::kNone;
  sim::SimTime deadline;     // zero = not given
  bool priority_rubbos = false;
  bool kv_config_set = false;
  bool zipf_set = false;
  bool key_space_set = false;
  bool cache_flags_set = false;

  for (std::size_t i = 0; i < args.size(); ++i) {
    const std::string& a = args[i];
    auto value = [&](std::string& out) {
      if (i + 1 >= args.size()) return false;
      out = args[++i];
      return true;
    };
    std::string v;
    long long n = 0;
    double x = 0;
    // A time-valued flag, counted in units of `unit_seconds`.
    auto time_value = [&](double unit_seconds, sim::SimTime& out) {
      if (!value(v)) return false;
      const auto t = sim::parse_time(v, unit_seconds);
      if (t) out = *t;
      return t.has_value();
    };

    if (a == "--help" || a == "-h") {
      o.help = true;
    } else if (a == "--full") {
      const auto paper = experiment::ExperimentConfig::paper_scale();
      o.config.num_clients = paper.num_clients;
      o.config.think_mean = paper.think_mean;
      o.config.duration = paper.duration;
      o.config.warmup = paper.warmup;
    } else if (a == "--clients") {
      if (!value(v) || !parse_int(v, n) || n <= 0) return fail("bad --clients");
      o.config.num_clients = static_cast<int>(n);
    } else if (a == "--think-ms") {
      if (!time_value(1e-3, o.config.think_mean)) return fail("bad --think-ms");
    } else if (a == "--duration-s") {
      if (!time_value(1, o.config.duration)) return fail("bad --duration-s");
    } else if (a == "--apaches") {
      if (!value(v) || !parse_int(v, n) || n <= 0) return fail("bad --apaches");
      o.config.num_apaches = static_cast<int>(n);
    } else if (a == "--tomcats") {
      if (!value(v) || !parse_int(v, n) || n <= 0) return fail("bad --tomcats");
      o.config.num_tomcats = static_cast<int>(n);
    } else if (a == "--mysql") {
      if (!value(v) || !parse_int(v, n) || n <= 0) return fail("bad --mysql");
      o.config.num_mysql = static_cast<int>(n);
    } else if (a == "--seed") {
      if (!value(v) || !parse_int(v, n) || n < 0) return fail("bad --seed");
      o.config.seed = static_cast<std::uint64_t>(n);
    } else if (a == "--db-tier") {
      if (!value(v)) return fail("missing --db-tier value");
      server::DbTier tier;
      if (!server::db_tier_from_string(v, &tier))
        return fail("unknown db tier: " + v + " (expected mysql|kv)");
      o.config.db_tier = tier;
    } else if (a == "--kv") {
      if (!value(v)) return fail("missing --kv value");
      std::string err;
      const auto kc = kv::kv_config_from_string(v, &err);
      if (!kc) return fail("bad --kv: " + err);
      o.config.kv = *kc;
      kv_config_set = true;
    } else if (a == "--zipf-s") {
      if (!value(v) || !parse_double(v, x) || x < 0) return fail("bad --zipf-s");
      o.config.workload.zipf_s = x;
      zipf_set = true;
    } else if (a == "--key-space") {
      if (!value(v) || !parse_int(v, n) || n <= 0) return fail("bad --key-space");
      o.config.workload.key_space = static_cast<std::uint64_t>(n);
      key_space_set = true;
    } else if (a == "--kv-millibottlenecks") {
      o.config.kv_millibottlenecks = true;
    } else if (a == "--cache-tier") {
      o.config.cache_tier = true;
    } else if (a == "--cache") {
      if (!value(v)) return fail("missing --cache value");
      std::string err;
      const auto cc = cache::cache_config_from_string(v, &err);
      if (!cc) return fail("bad --cache: " + err);
      o.config.cache = *cc;
      cache_flags_set = true;
    } else if (a == "--cache-bytes") {
      if (!value(v) || !parse_int(v, n) || n <= 0) return fail("bad --cache-bytes");
      o.config.cache.bytes = static_cast<std::uint64_t>(n);
      cache_flags_set = true;
    } else if (a == "--cache-ttl-ms") {
      if (!time_value(1e-3, o.config.cache.ttl)) return fail("bad --cache-ttl-ms");
      cache_flags_set = true;
    } else if (a == "--cache-coalesce") {
      if (!value(v)) return fail("missing --cache-coalesce value");
      if (v == "on")
        o.config.cache.coalesce = true;
      else if (v == "off")
        o.config.cache.coalesce = false;
      else
        return fail("bad --cache-coalesce: " + v + " (expected on|off)");
      cache_flags_set = true;
    } else if (a == "--policy") {
      if (!value(v)) return fail("missing --policy value");
      const auto p = lb::policy_from_string(v);
      if (!p) return fail("unknown policy: " + v);
      o.config.policy = *p;
    } else if (a == "--mechanism") {
      if (!value(v)) return fail("missing --mechanism value");
      const auto m = parse_mechanism(v);
      if (!m) return fail("unknown mechanism: " + v);
      o.config.mechanism = *m;
    } else if (a == "--db-policy") {
      if (!value(v)) return fail("missing --db-policy value");
      const auto p = lb::policy_from_string(v);
      if (!p) return fail("unknown db policy: " + v);
      o.config.db_router.policy = *p;
    } else if (a == "--db-mechanism") {
      if (!value(v)) return fail("missing --db-mechanism value");
      const auto m = parse_mechanism(v);
      if (!m) return fail("unknown db mechanism: " + v);
      o.config.db_router.mechanism = *m;
    } else if (a == "--sticky") {
      o.config.sticky_sessions = true;
    } else if (a == "--no-millibottlenecks") {
      o.config.tomcat_millibottlenecks = false;
    } else if (a == "--stall-source") {
      if (!value(v)) return fail("missing --stall-source value");
      const auto src = parse_source(v);
      if (!src) return fail("unknown stall source: " + v);
      o.config.tomcat_stall_source = *src;
    } else if (a == "--bursty") {
      if (!value(v) || !parse_double(v, x) || x < 1.0) return fail("bad --bursty");
      o.config.bursty_workload = true;
      o.config.burst_multiplier = x;
    } else if (a == "--mix") {
      if (!value(v)) return fail("missing --mix value");
      if (v == "read_write")
        o.config.workload.mix = workload::Mix::kReadWrite;
      else if (v == "browse_only")
        o.config.workload.mix = workload::Mix::kBrowseOnly;
      else
        return fail("unknown mix: " + v);
    } else if (a == "--chaos") {
      o.chaos = true;
    } else if (a == "--chaos-seed") {
      if (!value(v) || !parse_int(v, n) || n < 0) return fail("bad --chaos-seed");
      o.chaos = true;
      o.chaos_seed = static_cast<std::uint64_t>(n);
    } else if (a == "--resilience") {
      o.resilience = true;
    } else if (a == "--gray-fault") {
      if (!value(v)) return fail("missing --gray-fault value");
      if (v != "data_path" && v != "link" && v != "replica")
        return fail("unknown gray fault: " + v +
                    " (expected data_path|link|replica)");
      o.gray_fault = v;
    } else if (a == "--recovery") {
      if (!value(v)) return fail("missing --recovery value");
      if (v == "on")
        o.config.recovery.enabled = true;
      else if (v == "off")
        o.config.recovery.enabled = false;
      else
        return fail("bad --recovery: " + v + " (expected on|off)");
    } else if (a == "--overload") {
      if (!value(v)) return fail("missing --overload value");
      if (!control::parse_overload_mode(v, &overload_mode))
        return fail("unknown overload mode: " + v +
                    " (expected none|deadline|admission|codel|full)");
      overload_set = true;
    } else if (a == "--deadline-ms") {
      if (!time_value(1e-3, deadline)) return fail("bad --deadline-ms");
    } else if (a == "--priority-mix") {
      if (!value(v)) return fail("missing --priority-mix value");
      if (v == "rubbos")
        priority_rubbos = true;
      else if (v != "uniform")
        return fail("unknown priority mix: " + v +
                    " (expected uniform|rubbos)");
    } else if (a == "--sweep-seeds") {
      if (!value(v) || !parse_int(v, n) || n <= 0) return fail("bad --sweep-seeds");
      o.sweep_seeds = static_cast<int>(n);
    } else if (a == "--jobs") {
      if (!value(v) || !parse_int(v, n) || n <= 0) return fail("bad --jobs");
      o.jobs = static_cast<int>(n);
    } else if (a == "--probe-rate") {
      if (!value(v) || !parse_double(v, x) || x <= 0) return fail("bad --probe-rate");
      o.config.probe.rate_hz = x;
    } else if (a == "--probe-d") {
      if (!value(v) || !parse_int(v, n) || n <= 0) return fail("bad --probe-d");
      o.config.probe.d = static_cast<int>(n);
    } else if (a == "--probe-staleness") {
      if (!time_value(1e-3, o.config.probe.staleness))
        return fail("bad --probe-staleness");
    } else if (a == "--trace") {
      if (!value(o.trace_path)) return fail("missing --trace value");
      o.config.event_trace = true;
    } else if (a == "--trace-format") {
      if (!value(v)) return fail("missing --trace-format value");
      const auto f = obs::parse_trace_format(v);
      if (!f) return fail("unknown trace format: " + v);
      o.trace_format = *f;
    } else if (a == "--telemetry") {
      o.config.telemetry.enabled = true;
    } else if (a == "--detect") {
      o.config.online_detect = true;
    } else if (a == "--trace-sample") {
      if (!value(v)) return fail("missing --trace-sample value");
      if (v == "tail")
        o.config.trace_tail.enabled = true;
      else if (v != "full")
        return fail("unknown trace sample mode: " + v + " (expected full|tail)");
    } else if (a == "--record-trace") {
      if (!value(o.record_trace_path)) return fail("missing --record-trace value");
    } else if (a == "--replay-trace" || a == "--trace-replay") {
      if (!value(o.replay_trace_path)) return fail("missing " + a + " value");
    } else if (a == "--trace-gen") {
      if (!value(o.trace_gen_spec)) return fail("missing --trace-gen value");
      std::string err;
      if (!workload::trace_gen_spec_from_string(o.trace_gen_spec, &err))
        return fail("bad --trace-gen: " + err);
    } else if (a == "--trace-out") {
      if (!value(o.trace_out_path)) return fail("missing --trace-out value");
    } else if (a == "--replay-timeout-ms") {
      sim::SimTime timeout;
      if (!time_value(1e-3, timeout)) return fail("bad --replay-timeout-ms");
      o.replay_timeout_ms = timeout.to_millis();
    } else if (a == "--replay-scale") {
      if (!value(v) || !parse_double(v, x) || x <= 0)
        return fail("bad --replay-scale");
      o.replay_scale = x;
    } else if (a == "--json") {
      if (!value(o.json_path)) return fail("missing --json value");
    } else if (a == "--csv") {
      if (!value(o.csv_dir)) return fail("missing --csv value");
    } else if (a == "--quiet") {
      o.quiet = true;
    } else {
      return fail("unknown flag: " + a);
    }
  }
  if (o.sweep_seeds > 0 &&
      (!o.record_trace_path.empty() || !o.trace_path.empty()))
    return fail(
        "--sweep-seeds cannot be combined with --record-trace or --trace "
        "(those are per-run artifacts; replaying a trace across a sweep is "
        "fine)");
  if (!o.trace_gen_spec.empty() && !o.replay_trace_path.empty())
    return fail(
        "--trace-gen and --replay-trace both name a replay source; pick one "
        "(generate to a file with --trace-out, then replay it)");
  if (!o.trace_out_path.empty() && o.trace_gen_spec.empty())
    return fail("--trace-out requires --trace-gen (nothing else writes it)");
  if (!o.record_trace_path.empty() &&
      (!o.replay_trace_path.empty() || !o.trace_gen_spec.empty()))
    return fail(
        "--record-trace cannot be combined with a replay source (the "
        "closed loop is idled during replay, so there is nothing to record)");
  if ((o.replay_timeout_ms > 0 || o.replay_scale > 0) &&
      o.replay_trace_path.empty() && o.trace_gen_spec.empty())
    return fail(
        "--replay-timeout-ms / --replay-scale require --replay-trace or "
        "--trace-gen (they only affect open-loop replay)");
  if (o.config.trace_tail.enabled &&
      (!o.config.online_detect || o.trace_path.empty()))
    return fail(
        "--trace-sample tail requires --detect (the detector marks the "
        "episode windows worth keeping) and --trace FILE (the sampled "
        "output)");
  if (o.gray_fault == "replica" && o.config.db_tier != server::DbTier::kKv)
    return fail(
        "--gray-fault replica requires --db-tier kv (the slow-but-alive "
        "replica lives in the KV quorum)");
  if (o.config.db_tier != server::DbTier::kKv &&
      (kv_config_set || zipf_set || key_space_set ||
       o.config.kv_millibottlenecks))
    return fail(
        "--kv, --zipf-s, --key-space, and --kv-millibottlenecks require "
        "--db-tier kv (the MySQL tier ignores key-level routing)");
  if (cache_flags_set && !o.config.cache_tier)
    return fail(
        "--cache, --cache-bytes, --cache-ttl-ms, and --cache-coalesce "
        "require --cache-tier (no cache tier is built otherwise)");
  if (o.config.cache_tier && o.config.db_tier != server::DbTier::kKv)
    return fail(
        "--cache-tier requires --db-tier kv (the cache fronts the "
        "replicated KV store; the MySQL tier has no key-level reads)");
  if (o.config.cache_tier) {
    std::string err;
    if (!o.config.cache.validate(&err)) return fail("bad cache config: " + err);
  }
  using control::OverloadMode;
  const bool deadline_set = deadline > sim::SimTime::zero();
  if (deadline_set && (!overload_set ||
                       (overload_mode != OverloadMode::kDeadline &&
                        overload_mode != OverloadMode::kFull)))
    return fail(
        "--deadline-ms requires --overload deadline or --overload full "
        "(no tier enforces deadlines otherwise)");
  if (priority_rubbos && (!overload_set ||
                          (overload_mode != OverloadMode::kAdmission &&
                           overload_mode != OverloadMode::kFull)))
    return fail(
        "--priority-mix rubbos requires --overload admission or --overload "
        "full (brownout priorities need the admission limiter)");
  if (overload_set) {
    o.config.overload = control::make_overload(
        overload_mode, deadline_set ? deadline : sim::SimTime::seconds(1));
    if (priority_rubbos)
      o.config.workload.priority_mix = workload::PriorityMix::kRubbos;
  }
  ParseResult r;
  r.options = std::move(o);
  return r;
}

ParseResult parse_cli(int argc, char** argv) {
  std::vector<std::string> args;
  for (int i = 1; i < argc; ++i) args.emplace_back(argv[i]);
  return parse_cli(args);
}

int run_cli(const CliOptions& options) {
  if (options.help) {
    std::cout << usage_text();
    return 0;
  }
  experiment::ExperimentConfig cfg = options.config;

  // -- replay source: a saved trace, or one synthesized from --trace-gen ------
  std::shared_ptr<workload::ArrivalTrace> trace;
  if (!options.trace_gen_spec.empty()) {
    const auto spec =
        workload::trace_gen_spec_from_string(options.trace_gen_spec, nullptr);
    const workload::TraceGenerator gen(*spec);  // validated by parse_cli
    const workload::RubbosWorkload gen_workload(cfg.workload);
    auto generated = gen.generate(gen_workload);
    if (!options.trace_out_path.empty()) {
      // Artifact mode: write the trace and stop — the point is a replayable
      // file, not a run.
      try {
        generated.save_file(options.trace_out_path);
      } catch (const std::exception& err) {
        std::cerr << err.what() << "\n";
        return 1;
      }
      if (!options.quiet)
        std::cout << "generated " << generated.size() << " arrivals ("
                  << spec->to_string() << ") to " << options.trace_out_path
                  << "\n";
      return 0;
    }
    trace = std::make_shared<workload::ArrivalTrace>(std::move(generated));
  } else if (!options.replay_trace_path.empty()) {
    try {
      trace = std::make_shared<workload::ArrivalTrace>(
          workload::ArrivalTrace::load_file(options.replay_trace_path));
    } catch (const std::exception& err) {
      std::cerr << err.what() << "\n";
      return 1;
    }
  }
  if (trace) {
    if (options.replay_scale > 0) trace->scale_time(options.replay_scale);
    // Loaders accept out-of-order rows (edited/merged traces); the replayer
    // does not — restore the sort contract here.
    if (!trace->sorted()) trace->sort();
    cfg.replay_trace = trace;
    if (options.replay_timeout_ms > 0)
      cfg.replay_client_timeout =
          sim::SimTime::from_millis(options.replay_timeout_ms);
    cfg.label += "_replay";
  }

  if (options.resilience) cfg.enable_resilience();
  if (options.chaos) {
    millib::FaultPlanConfig fc;
    // Fit the schedule into the configured run: faults start after the
    // warm-up and the last clear lands before the run ends.
    fc.initial_offset = std::max(cfg.warmup, sim::SimTime::seconds(1));
    fc.horizon = std::max(fc.initial_offset + sim::SimTime::seconds(1),
                          cfg.duration - fc.max_duration);
    cfg.fault_plan.merge(
        millib::FaultPlan::randomized(options.chaos_seed, fc, cfg.num_tomcats));
    cfg.label += "_chaos";
  }
  if (!options.gray_fault.empty()) {
    // One deterministic gray fault, scaled to the measured part of the run:
    // it opens a quarter of the way in and lasts a tenth of the span, so the
    // pre-trigger baseline and the post-clear basin are both observable.
    const double span = (cfg.duration - cfg.warmup).to_seconds();
    millib::FaultSpec spec;
    spec.worker = 0;
    spec.start = cfg.warmup + sim::SimTime::from_seconds(span * 0.25);
    spec.duration = sim::SimTime::from_seconds(span * 0.10);
    spec.severity = 0.9;
    if (options.gray_fault == "data_path") {
      spec.kind = millib::FaultKind::kGrayDataPath;
    } else if (options.gray_fault == "link") {
      spec.kind = millib::FaultKind::kGrayLink;
      spec.extra_latency = sim::SimTime::millis(5);
      spec.loss_probability = 0.3;
    } else {
      spec.kind = millib::FaultKind::kGraySlowReplica;
    }
    cfg.fault_plan.merge(millib::FaultPlan::single(spec));
    cfg.label += "_gray";
  }

  if (options.sweep_seeds > 0) return run_sweep(options, std::move(cfg));

  if (!options.quiet)
    std::cout << "running " << experiment::describe(cfg) << "\n";
  experiment::Experiment e(std::move(cfg));

  workload::ArrivalTrace recorded;
  if (!options.record_trace_path.empty()) {
    e.mutable_clients().set_issue_hook(
        [&recorded](sim::SimTime at, const proto::Request& req) {
          recorded.add_rich(at, req.client, req.interaction, req.key,
                            req.priority);
        });
  }

  e.run();

  const bool replay = e.replayer() != nullptr;
  const metrics::RequestLog& log = e.log();
  auto summary = experiment::summarize(e);

  if (!options.quiet) {
    experiment::print_table1_header(std::cout);
    std::cout << log.summary_row(summary.policy + " + " + summary.mechanism +
                                 (replay ? " (trace replay)" : ""))
              << "\n\n";
    experiment::print_panel(std::cout, "tomcat tier queue", e.tomcat_tier_queue());
    experiment::print_panel(std::cout, "apache tier queue", e.apache_tier_queue());
    std::cout << "p99 " << summary.p99_ms << " ms, p99.9 " << summary.p999_ms
              << " ms, drops " << summary.connection_drops << ", 503s "
              << summary.balancer_errors << "\n";
    if (replay) {
      const auto* rp = e.replayer();
      std::cout << "trace replay: " << summary.trace_arrivals << " arrivals, "
                << rp->issued() << " issued, " << rp->completed_ok()
                << " ok, " << rp->dropped() << " dropped, " << rp->abandoned()
                << " abandoned, " << rp->in_flight()
                << " in flight at horizon\n";
    }
    if (e.chaos()) {
      std::cout << "\nfault schedule (applied/cleared):\n"
                << e.chaos()->trace_string();
    }
    if (options.resilience) {
      std::uint64_t trips = 0, probes = 0, timeouts = 0;
      for (int a = 0; a < e.num_apaches(); ++a) {
        trips += e.apache(a).balancer().breaker_trips();
        if (e.apache(a).prober()) {
          probes += e.apache(a).prober()->probes_sent();
          timeouts += e.apache(a).prober()->probes_timed_out();
        }
      }
      std::cout << "resilience: " << probes << " probes (" << timeouts
                << " timed out), " << trips << " breaker trips, "
                << summary.retries << " retries\n";
    }
    if (!options.gray_fault.empty()) {
      std::cout << "gray fault (" << options.gray_fault << "): "
                << summary.gray_inflated_ops << " gray-inflated ops, "
                << summary.kv_slow_ops << " slow-replica ops\n";
    }
    if (e.recovery()) {
      std::cout << "recovery: " << e.recovery()->stats().to_string() << "\n";
    }
    if (e.config().overload.any()) {
      std::cout << "overload control: goodput " << summary.goodput_rps
                << " req/s (" << summary.completed_within_deadline
                << " within deadline, " << summary.missed_deadline
                << " late), sheds " << summary.admission_sheds << " admission / "
                << summary.brownout_sheds << " brownout / "
                << summary.deadline_sheds << " deadline / "
                << summary.sojourn_sheds << " sojourn, "
                << summary.shed_retries << " retriable-503 retries, "
                << summary.wasted_work_avoided_ms
                << " ms wasted work avoided\n";
    }
    if (e.kv_tier()) {
      const auto& ks = e.kv_tier()->stats();
      std::cout << "kv tier: " << ks.quorum_reads << " quorum reads / "
                << ks.quorum_writes << " quorum writes (mean wait "
                << ks.mean_quorum_wait_ms() << " ms), failed "
                << ks.quorum_failed_reads + ks.quorum_failed_writes
                << " quorum / " << ks.handoff_dropped << " handoff / "
                << ks.migration_shed << " migration-shed, hints "
                << ks.hints_created << " created / " << ks.hints_replayed
                << " replayed, " << ks.read_repairs
                << " read repairs, degraded op time " << ks.degraded_wait_ms
                << " ms\n";
    }
    if (e.cache_tier()) {
      const auto& cs = e.cache_tier()->stats();
      std::cout << "cache tier: " << cs.hits << " hits / " << cs.misses
                << " misses (hit ratio " << cs.hit_ratio() << "), "
                << cs.coalesced_fills << " coalesced fills, invalidations "
                << cs.invalidations_sent << " sent / "
                << cs.invalidations_delivered << " delivered / "
                << cs.invalidations_dropped << " dropped, " << cs.evictions
                << " evictions, " << cs.expirations << " expirations, "
                << cs.storms << " storms\n";
    }
    {
      std::uint64_t sent = 0, replies = 0, timeouts = 0, uses = 0;
      std::uint64_t piggybacked = 0;
      std::uint64_t probe_picks = 0, tiebreaks = 0, fallback_picks = 0;
      double staleness_sum = 0.0;
      bool any_pool = false;
      for (int a = 0; a < e.num_apaches(); ++a) {
        const auto* pool = e.apache(a).probe_pool();
        if (pool) {
          any_pool = true;
          sent += pool->probes_sent();
          replies += pool->replies();
          timeouts += pool->timeouts();
          piggybacked += pool->piggybacked();
          staleness_sum += pool->mean_staleness_at_use_ms() *
                           static_cast<double>(pool->uses());
          uses += pool->uses();
        }
        const auto* aware = dynamic_cast<const lb::ProbeAwarePolicy*>(
            &e.apache(a).balancer().policy());
        if (aware) {
          probe_picks += aware->probe_picks();
          tiebreaks += aware->tiebreak_picks();
          fallback_picks += aware->fallback_picks();
        }
      }
      if (any_pool) {
        std::cout << "probing: " << sent << " probes ("
                  << replies << " replies, " << timeouts << " timed out), "
                  << piggybacked << " piggybacked reports, "
                  << probe_picks << " probe-driven picks, " << tiebreaks
                  << " probed tie-breaks, " << fallback_picks
                  << " current_load fallbacks, mean staleness at use "
                  << (uses ? staleness_sum / static_cast<double>(uses) : 0.0)
                  << " ms\n";
      }
    }
    if (e.online_detector()) {
      std::cout << "online detection: " << summary.online_episodes
                << " episodes (" << summary.online_matched << "/"
                << summary.online_truth_episodes
                << " ground-truth episodes matched, "
                << summary.online_false_positives
                << " false positives), median detection latency "
                << summary.online_median_detection_ms << " ms, "
                << summary.online_episode_vlrts << " VLRTs attributed\n";
    }
    if (e.trace() && e.trace()->tail_enabled()) {
      std::cout << "tail sampling: kept " << summary.trace_events_kept
                << " of " << summary.trace_events_seen << " events ("
                << summary.trace_kept_fraction * 100.0 << "%)\n";
    }
    if (e.telemetry()) {
      std::cout << "telemetry: " << e.telemetry()->size()
                << " instruments, client rt p50/p99/p99.9 "
                << summary.rt_sketch_p50_ms << " / "
                << summary.rt_sketch_p99_ms << " / "
                << summary.rt_sketch_p999_ms << " ms (sketch)\n";
    }
  }
  if (!options.record_trace_path.empty()) {
    std::ofstream f(options.record_trace_path);
    if (!f) {
      std::cerr << "cannot write " << options.record_trace_path << "\n";
      return 1;
    }
    recorded.save(f);
    if (!options.quiet)
      std::cout << "recorded " << recorded.size() << " arrivals to "
                << options.record_trace_path << "\n";
  }
  if (!options.trace_path.empty()) {
    if (!e.trace()) {
      std::cerr << "internal: event trace was not collected\n";
      return 1;
    }
    std::ofstream f(options.trace_path);
    if (!f) {
      std::cerr << "cannot write " << options.trace_path << "\n";
      return 1;
    }
    obs::write_trace(f, *e.trace(), options.trace_format);
    if (!options.quiet) {
      std::cout << "wrote " << e.trace()->size() << " trace events to "
                << options.trace_path;
      if (e.trace()->dropped())
        std::cout << " (ring overwrote " << e.trace()->dropped()
                  << " oldest events; raise trace capacity)";
      std::cout << "\n";
    }
  }
  if (!options.json_path.empty()) {
    std::ofstream f(options.json_path);
    if (!f) {
      std::cerr << "cannot write " << options.json_path << "\n";
      return 1;
    }
    summary.to_json(f);
  }
  if (!options.csv_dir.empty()) {
    try {
      std::filesystem::create_directories(options.csv_dir);
      experiment::write_series_csv(
          options.csv_dir + "/tier_queues.csv", e.config().metric_window,
          {"apache", "tomcat", "mysql"},
          {e.apache_tier_queue(), e.tomcat_tier_queue(), e.mysql_tier_queue()});
      if (e.kv_tier())
        experiment::write_series_csv(options.csv_dir + "/kv_queue.csv",
                                     e.config().metric_window, {"kv"},
                                     {e.kv_tier_queue()});
      experiment::write_series_csv(
          options.csv_dir + "/vlrt.csv", e.config().metric_window, {"vlrt"},
          {experiment::series_count(e.log().vlrt_series(),
                                    e.num_metric_windows())});
      if (e.telemetry()) {
        std::ofstream t(options.csv_dir + "/telemetry.csv");
        if (!t) throw std::runtime_error("cannot open telemetry.csv");
        e.telemetry()->to_csv(t);
      }
    } catch (const std::exception& err) {
      std::cerr << "cannot write CSV series under --csv dir '"
                << options.csv_dir << "': " << err.what() << "\n";
      return 1;
    }
  }
  return 0;
}

}  // namespace ntier::cli
