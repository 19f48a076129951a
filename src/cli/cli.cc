#include "cli/cli.h"

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <memory>

#include "control/overload.h"
#include "experiment/chaos.h"
#include "experiment/experiment.h"
#include "experiment/report.h"
#include "experiment/summary.h"
#include "experiment/sweep.h"
#include "lb/policy.h"
#include "sim/fields.h"
#include "workload/trace.h"
#include "workload/trace_gen.h"

namespace ntier::cli {

namespace {

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
  --cache CFG            cache geometry as key=value pairs: nodes, bytes
                         (memory per node), entry, ttl_ms (entry time-to-
                         live, the staleness backstop for dropped
                         invalidations), inval_queue, coalesce (0 | 1,
                         single-flight fill coalescing)
                         (e.g. nodes=2,bytes=67108864,ttl_ms=10000)

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
  --telemetry            streaming per-tier instruments, each a series of
                         50 ms windows (count/avg/max); with --csv, writes
                         telemetry.csv
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

  control::OverloadMode overload_mode = control::OverloadMode::kNone;
  sim::SimTime deadline;     // zero = not given
  bool priority_rubbos = false;
  std::string word;          // the value of the last enum flag

  // Every flag that sets one value, with that value's kind and bounds. The
  // enum flags read their word here and the loop below maps it; the rules
  // after the loop set what a flag implies and cross-check the flags.
  constexpr std::string_view kEnumFlags[] = {
      "--db-tier",      "--policy",       "--mechanism",  "--db-policy",
      "--db-mechanism", "--stall-source", "--mix",        "--gray-fault",
      "--recovery",     "--overload",     "--priority-mix",
      "--trace-format", "--trace-sample"};
  const auto flags = [&](auto&& row) {
    row("--help", o.help, sim::Switch{});
    row("-h", o.help, sim::Switch{});
    row("--clients", o.config.num_clients, sim::Int{.lo = 1});
    row("--think-ms", o.config.think_mean, sim::kMillis);
    row("--duration-s", o.config.duration, sim::kSeconds);
    row("--apaches", o.config.num_apaches, sim::Int{.lo = 1});
    row("--tomcats", o.config.num_tomcats, sim::Int{.lo = 1});
    row("--mysql", o.config.num_mysql, sim::Int{.lo = 1});
    row("--seed", o.config.seed, sim::Int{});
    row("--kv", o.config.kv, sim::Spec{});
    row("--zipf-s", o.config.workload.zipf_s, sim::Real{.lo = 0});
    row("--key-space", o.config.workload.key_space, sim::Int{.lo = 1});
    row("--kv-millibottlenecks", o.config.kv_millibottlenecks, sim::Switch{});
    row("--cache-tier", o.config.cache_tier, sim::Switch{});
    row("--cache", o.config.cache, sim::Spec{});
    row("--sticky", o.config.sticky_sessions, sim::Switch{});
    row("--no-millibottlenecks", o.config.tomcat_millibottlenecks,
        sim::Switch{false});
    row("--bursty", o.config.burst_multiplier, sim::Real{.lo = 1});
    row("--chaos", o.chaos, sim::Switch{});
    row("--chaos-seed", o.chaos_seed, sim::Int{});
    row("--resilience", o.resilience, sim::Switch{});
    row("--deadline-ms", deadline, sim::kMillis);
    row("--sweep-seeds", o.sweep_seeds, sim::Int{.lo = 1});
    row("--jobs", o.jobs, sim::Int{.lo = 1});
    row("--probe-rate", o.config.probe.rate_hz,
        sim::Real{.lo = 0, .open = true});
    row("--probe-d", o.config.probe.d, sim::Int{.lo = 1});
    row("--probe-staleness", o.config.probe.staleness, sim::kMillis);
    row("--trace", o.trace_path, sim::Text{});
    row("--telemetry", o.config.telemetry.enabled, sim::Switch{});
    row("--detect", o.config.online_detect, sim::Switch{});
    row("--record-trace", o.record_trace_path, sim::Text{});
    row("--replay-trace", o.replay_trace_path, sim::Text{});
    row("--trace-gen", o.trace_gen, sim::Spec{});
    row("--trace-out", o.trace_out_path, sim::Text{});
    row("--replay-timeout-ms", o.replay_timeout, sim::kMillis);
    row("--replay-scale", o.replay_scale, sim::Real{.lo = 0, .open = true});
    row("--json", o.json_path, sim::Text{});
    row("--csv", o.csv_dir, sim::Text{});
    row("--quiet", o.quiet, sim::Switch{});
    for (const std::string_view flag : kEnumFlags) row(flag, word, sim::Text{});
  };

  std::vector<std::string_view> seen;
  auto given = [&seen](std::string_view flag) {
    return std::find(seen.begin(), seen.end(), flag) != seen.end();
  };
  for (std::size_t i = 0; i < args.size(); ++i) {
    const std::string& a = args[i];
    seen.push_back(a);
    const sim::FlagResult r = sim::apply_flag(flags, args, i);
    if (!r.error.empty()) return fail(r.error);
    if (a == "--full") {
      const auto paper = experiment::ExperimentConfig::paper_scale();
      o.config.num_clients = paper.num_clients;
      o.config.think_mean = paper.think_mean;
      o.config.duration = paper.duration;
      o.config.warmup = paper.warmup;
    } else if (a == "--db-tier") {
      server::DbTier tier;
      if (!server::db_tier_from_string(word, &tier))
        return fail("unknown db tier: " + word + " (expected mysql|kv)");
      o.config.db_tier = tier;
    } else if (a == "--policy") {
      const auto p = lb::policy_from_string(word);
      if (!p) return fail("unknown policy: " + word);
      o.config.policy = *p;
    } else if (a == "--mechanism") {
      const auto m = parse_mechanism(word);
      if (!m) return fail("unknown mechanism: " + word);
      o.config.mechanism = *m;
    } else if (a == "--db-policy") {
      const auto p = lb::policy_from_string(word);
      if (!p) return fail("unknown db policy: " + word);
      o.config.db_router.policy = *p;
    } else if (a == "--db-mechanism") {
      const auto m = parse_mechanism(word);
      if (!m) return fail("unknown db mechanism: " + word);
      o.config.db_router.mechanism = *m;
    } else if (a == "--stall-source") {
      const auto src = parse_source(word);
      if (!src) return fail("unknown stall source: " + word);
      o.config.tomcat_stall_source = *src;
    } else if (a == "--mix") {
      if (word == "read_write")
        o.config.workload.mix = workload::Mix::kReadWrite;
      else if (word == "browse_only")
        o.config.workload.mix = workload::Mix::kBrowseOnly;
      else
        return fail("unknown mix: " + word);
    } else if (a == "--gray-fault") {
      if (word != "data_path" && word != "link" && word != "replica")
        return fail("unknown gray fault: " + word +
                    " (expected data_path|link|replica)");
      o.gray_fault = word;
    } else if (a == "--recovery") {
      if (word == "on")
        o.config.recovery.enabled = true;
      else if (word == "off")
        o.config.recovery.enabled = false;
      else
        return fail("bad --recovery: " + word + " (expected on|off)");
    } else if (a == "--overload") {
      if (!control::parse_overload_mode(word, &overload_mode))
        return fail("unknown overload mode: " + word +
                    " (expected none|deadline|admission|codel|full)");
    } else if (a == "--priority-mix") {
      if (word == "rubbos")
        priority_rubbos = true;
      else if (word != "uniform")
        return fail("unknown priority mix: " + word +
                    " (expected uniform|rubbos)");
    } else if (a == "--trace-format") {
      const auto f = obs::parse_trace_format(word);
      if (!f) return fail("unknown trace format: " + word);
      o.trace_format = *f;
    } else if (a == "--trace-sample") {
      if (word == "tail")
        o.config.trace_tail.enabled = true;
      else if (word != "full")
        return fail("unknown trace sample mode: " + word +
                    " (expected full|tail)");
    } else if (r.status == sim::FlagResult::kNotInTable) {
      return fail("unknown flag: " + a);
    }
  }
  if (given("--bursty")) o.config.bursty_workload = true;
  if (given("--chaos-seed")) o.chaos = true;
  if (given("--trace")) o.config.event_trace = true;
  if (o.sweep_seeds > 0 &&
      (!o.record_trace_path.empty() || !o.trace_path.empty()))
    return fail(
        "--sweep-seeds cannot be combined with --record-trace or --trace "
        "(those are per-run artifacts; replaying a trace across a sweep is "
        "fine)");
  if (o.trace_gen && !o.replay_trace_path.empty())
    return fail(
        "--trace-gen and --replay-trace both name a replay source; pick one "
        "(generate to a file with --trace-out, then replay it)");
  if (!o.trace_out_path.empty() && !o.trace_gen)
    return fail("--trace-out requires --trace-gen (nothing else writes it)");
  if (!o.record_trace_path.empty() &&
      (!o.replay_trace_path.empty() || o.trace_gen))
    return fail(
        "--record-trace cannot be combined with a replay source (the "
        "closed loop is idled during replay, so there is nothing to record)");
  if ((o.replay_timeout > sim::SimTime::zero() || o.replay_scale > 0) &&
      o.replay_trace_path.empty() && !o.trace_gen)
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
      (given("--kv") || given("--zipf-s") || given("--key-space") ||
       o.config.kv_millibottlenecks))
    return fail(
        "--kv, --zipf-s, --key-space, and --kv-millibottlenecks require "
        "--db-tier kv (the MySQL tier ignores key-level routing)");
  if (given("--cache") && !o.config.cache_tier)
    return fail(
        "--cache requires --cache-tier (no cache tier is built otherwise)");
  if (o.config.cache_tier && o.config.db_tier != server::DbTier::kKv)
    return fail(
        "--cache-tier requires --db-tier kv (the cache fronts the "
        "replicated KV store; the MySQL tier has no key-level reads)");
  using control::OverloadMode;
  const bool overload_set = given("--overload");
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
  ParseResult result;
  result.options = std::move(o);
  return result;
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
  if (options.trace_gen) {
    const workload::TraceGenerator gen(*options.trace_gen);
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
                  << sim::spec_text(*options.trace_gen) << ") to "
                  << options.trace_out_path
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
    if (options.replay_timeout > sim::SimTime::zero())
      cfg.replay_client_timeout = options.replay_timeout;
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

  const metrics::RequestLog& log = e.log();
  const auto summary = experiment::summarize(e);
  const bool replay = summary.open_loop;

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
      // Whatever the replayer issued and did not fail, drop, abandon or
      // still hold completed.
      const std::uint64_t ok = summary.issued - summary.in_flight -
                               summary.dropped - summary.balancer_errors -
                               summary.replay_abandoned;
      std::cout << "trace replay: " << summary.trace_arrivals << " arrivals, "
                << summary.issued << " issued, " << ok << " ok, "
                << summary.dropped << " dropped, " << summary.replay_abandoned
                << " abandoned, " << summary.in_flight
                << " in flight at horizon\n";
    }
    if (e.chaos()) {
      std::cout << "\nfault schedule (applied/cleared):\n"
                << e.chaos()->trace_string();
    }
    if (options.resilience) {
      std::cout << "resilience: " << summary.health_probes_sent
                << " probes (" << summary.health_probe_timeouts
                << " timed out), " << summary.breaker_trips
                << " breaker trips, " << summary.retries << " retries\n";
    }
    if (!options.gray_fault.empty()) {
      std::cout << "gray fault (" << options.gray_fault << "): "
                << summary.gray_inflated_ops << " gray-inflated ops, "
                << summary.kv_slow_ops << " slow-replica ops\n";
    }
    if (e.recovery()) {
      std::cout << "recovery: " << experiment::recovery_line(summary) << "\n";
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
      std::cout << "kv tier: " << summary.kv_quorum_reads << " quorum reads / "
                << summary.kv_quorum_writes << " quorum writes (mean wait "
                << summary.kv_mean_quorum_wait_ms << " ms), failed "
                << summary.kv_quorum_failed << " quorum / "
                << summary.kv_handoff_dropped << " handoff / "
                << summary.kv_migration_shed << " migration-shed, hints "
                << summary.kv_hints_created << " created / "
                << summary.kv_hints_replayed << " replayed, "
                << summary.kv_read_repairs << " read repairs, degraded op time "
                << summary.kv_degraded_ms << " ms\n";
    }
    if (e.cache_tier()) {
      std::cout << "cache tier: " << summary.cache_hits << " hits / "
                << summary.cache_misses << " misses (hit ratio "
                << summary.cache_hit_ratio << "), "
                << summary.cache_coalesced_fills
                << " coalesced fills, invalidations "
                << summary.cache_invalidations << " sent / "
                << summary.cache_invalidations_delivered << " delivered / "
                << summary.cache_invalidations_dropped << " dropped, "
                << summary.cache_evictions << " evictions, "
                << summary.cache_expirations << " expirations, "
                << summary.cache_storms << " storms\n";
    }
    // The Apaches carry a probe pool exactly when the first test holds, the
    // MySQL routers when the second does.
    const auto& run_cfg = e.config();
    const bool apache_probing =
        lb::runs_probe_pool(run_cfg.probe.enabled, run_cfg.policy);
    const bool db_probing =
        run_cfg.db_tier == server::DbTier::kMysql &&
        lb::runs_probe_pool(run_cfg.db_router.probe.enabled,
                            run_cfg.db_router.policy);
    if (apache_probing || db_probing) {
      std::cout << "probing: " << summary.probes_sent << " probes ("
                << summary.probe_replies << " replies, "
                << summary.probe_timeouts << " timed out), "
                << summary.probes_piggybacked << " piggybacked reports, "
                << summary.probe_picks << " probe-driven picks, "
                << summary.probe_tiebreaks << " probed tie-breaks, "
                << summary.probe_fallbacks
                << " current_load fallbacks, mean staleness at use "
                << summary.probe_mean_staleness_ms << " ms\n";
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
      std::cout << "telemetry: " << e.telemetry()->size() << " instruments\n";
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
          options.csv_dir + "/tier_queues.csv", experiment::kMetricWindow,
          {"apache", "tomcat", "mysql"},
          {e.apache_tier_queue(), e.tomcat_tier_queue(), e.mysql_tier_queue()});
      if (e.kv_tier())
        experiment::write_series_csv(options.csv_dir + "/kv_queue.csv",
                                     experiment::kMetricWindow, {"kv"},
                                     {e.kv_tier_queue()});
      experiment::write_series_csv(
          options.csv_dir + "/vlrt.csv", experiment::kMetricWindow, {"vlrt"},
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
