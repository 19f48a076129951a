#include "cli/cli.h"

#include <gtest/gtest.h>

#include "cache/config.h"
#include "sim/time.h"

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>

namespace ntier::cli {
namespace {

ParseResult parse(std::initializer_list<std::string> args) {
  return parse_cli(std::vector<std::string>(args));
}

TEST(Cli, DefaultsAreTheScaledPreset) {
  const auto r = parse({});
  ASSERT_TRUE(r.ok());
  const auto& c = r.options->config;
  EXPECT_EQ(c.num_clients, 7'000);
  EXPECT_EQ(c.num_apaches, 4);
  EXPECT_EQ(c.policy, lb::PolicyKind::kTotalRequest);
  EXPECT_EQ(c.mechanism, lb::MechanismKind::kBlocking);
  EXPECT_TRUE(c.tomcat_millibottlenecks);
  EXPECT_FALSE(r.options->quiet);
}

TEST(Cli, ParsesPolicyAndMechanism) {
  const auto r = parse({"--policy", "current_load", "--mechanism", "modified"});
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.options->config.policy, lb::PolicyKind::kCurrentLoad);
  EXPECT_EQ(r.options->config.mechanism, lb::MechanismKind::kNonBlocking);
}

TEST(Cli, ParsesEveryPolicyName) {
  for (const char* name : {"total_request", "total_traffic", "current_load",
                           "round_robin", "random", "two_choices"}) {
    const auto r = parse({"--policy", name});
    EXPECT_TRUE(r.ok()) << name;
  }
}

TEST(Cli, ParsesScaleFlags) {
  const auto r = parse({"--clients", "1000", "--think-ms", "100",
                        "--duration-s", "12.5", "--seed", "9", "--tomcats",
                        "8", "--mysql", "2"});
  ASSERT_TRUE(r.ok());
  const auto& c = r.options->config;
  EXPECT_EQ(c.num_clients, 1000);
  EXPECT_EQ(c.think_mean, sim::SimTime::millis(100));
  EXPECT_EQ(c.duration, sim::SimTime::from_seconds(12.5));
  EXPECT_EQ(c.seed, 9u);
  EXPECT_EQ(c.num_tomcats, 8);
  EXPECT_EQ(c.num_mysql, 2);
}

TEST(Cli, SeedsTakeTheFullUnsignedRange) {
  // As every bench's --seed does.
  const auto r = parse({"--seed", "18446744073709551615", "--chaos-seed",
                        "18446744073709551615"});
  ASSERT_TRUE(r.ok()) << r.error;
  EXPECT_EQ(r.options->config.seed, 18446744073709551615u);
  EXPECT_EQ(r.options->chaos_seed, 18446744073709551615u);
  EXPECT_TRUE(r.options->chaos);
  EXPECT_EQ(parse({"--seed", "18446744073709551616"}).error, "bad --seed");
  EXPECT_EQ(parse({"--chaos-seed", "-1"}).error, "bad --chaos-seed");
}

TEST(Cli, FullExpandsToPaperScale) {
  const auto r = parse({"--full"});
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.options->config.num_clients, 70'000);
  EXPECT_EQ(r.options->config.duration, sim::SimTime::seconds(180));
}

TEST(Cli, EnvironmentFlags) {
  const auto r = parse({"--no-millibottlenecks", "--sticky", "--bursty", "6",
                        "--mix", "browse_only", "--stall-source", "gc"});
  ASSERT_TRUE(r.ok());
  const auto& c = r.options->config;
  EXPECT_FALSE(c.tomcat_millibottlenecks);
  EXPECT_TRUE(c.sticky_sessions);
  EXPECT_TRUE(c.bursty_workload);
  EXPECT_DOUBLE_EQ(c.burst_multiplier, 6.0);
  EXPECT_EQ(c.workload.mix, workload::Mix::kBrowseOnly);
  EXPECT_EQ(c.tomcat_stall_source, experiment::StallSource::kGcPause);
}

TEST(Cli, OverloadFlagsParse) {
  const auto r = parse({"--overload", "full", "--deadline-ms", "500",
                        "--priority-mix", "rubbos"});
  ASSERT_TRUE(r.ok()) << r.error;
  const auto& ov = r.options->config.overload;
  EXPECT_EQ(ov.mode, control::OverloadMode::kFull);
  EXPECT_TRUE(ov.deadlines && ov.admission && ov.codel && ov.brownout);
  EXPECT_TRUE(ov.stamp_deadlines);
  EXPECT_EQ(ov.deadline_budget, sim::SimTime::millis(500));
  EXPECT_EQ(r.options->config.workload.priority_mix,
            workload::PriorityMix::kRubbos);
}

TEST(Cli, OverloadModeAloneDefaultsBudgetToOneSecond) {
  const auto r = parse({"--overload", "deadline"});
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.options->config.overload.mode, control::OverloadMode::kDeadline);
  EXPECT_EQ(r.options->config.overload.deadline_budget, sim::SimTime::seconds(1));
}

TEST(Cli, RejectsUnknownOverloadMode) {
  const auto r = parse({"--overload", "everything"});
  ASSERT_FALSE(r.ok());
  EXPECT_NE(r.error.find("unknown overload mode: everything"),
            std::string::npos);
  EXPECT_NE(r.error.find("none|deadline|admission|codel|full"),
            std::string::npos);
}

TEST(Cli, RejectsNonPositiveDeadline) {
  const auto r = parse({"--overload", "deadline", "--deadline-ms", "0"});
  ASSERT_FALSE(r.ok());
  EXPECT_NE(r.error.find("bad --deadline-ms"), std::string::npos);
}

TEST(Cli, RejectsDeadlineWithoutEnforcingMode) {
  // --deadline-ms without any mode, and with a mode that ignores deadlines.
  for (auto args : {std::vector<std::string>{"--deadline-ms", "500"},
                    std::vector<std::string>{"--overload", "admission",
                                             "--deadline-ms", "500"}}) {
    const auto r = parse_cli(args);
    ASSERT_FALSE(r.ok());
    EXPECT_NE(
        r.error.find("--deadline-ms requires --overload deadline or "
                     "--overload full"),
        std::string::npos)
        << r.error;
  }
}

TEST(Cli, RejectsPriorityMixWithoutAdmission) {
  for (auto args :
       {std::vector<std::string>{"--priority-mix", "rubbos"},
        std::vector<std::string>{"--overload", "deadline", "--priority-mix",
                                 "rubbos"}}) {
    const auto r = parse_cli(args);
    ASSERT_FALSE(r.ok());
    EXPECT_NE(r.error.find(
                  "--priority-mix rubbos requires --overload admission"),
              std::string::npos)
        << r.error;
  }
}

TEST(Cli, RejectsUnknownPriorityMix) {
  const auto r = parse({"--overload", "admission", "--priority-mix", "fifo"});
  ASSERT_FALSE(r.ok());
  EXPECT_NE(r.error.find("unknown priority mix: fifo"), std::string::npos);
}

TEST(Cli, OutputFlags) {
  const auto r = parse({"--json", "/tmp/x.json", "--csv", "/tmp/d", "--quiet"});
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.options->json_path, "/tmp/x.json");
  EXPECT_EQ(r.options->csv_dir, "/tmp/d");
  EXPECT_TRUE(r.options->quiet);
}

TEST(Cli, HelpFlag) {
  const auto r = parse({"--help"});
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE(r.options->help);
  EXPECT_NE(usage_text().find("--policy"), std::string::npos);
}

TEST(Cli, RejectsUnknownFlag) {
  const auto r = parse({"--frobnicate"});
  EXPECT_FALSE(r.ok());
  EXPECT_NE(r.error.find("unknown flag"), std::string::npos);
}

TEST(Cli, RejectsBadValues) {
  EXPECT_FALSE(parse({"--clients", "zero"}).ok());
  EXPECT_FALSE(parse({"--clients", "-5"}).ok());
  EXPECT_FALSE(parse({"--clients", "4294967297"}).ok());  // no int wrap-around
  EXPECT_FALSE(parse({"--think-ms"}).ok());           // missing value
  EXPECT_FALSE(parse({"--policy", "bogus"}).ok());
  EXPECT_FALSE(parse({"--mechanism", "bogus"}).ok());
  EXPECT_FALSE(parse({"--stall-source", "cosmic_rays"}).ok());
  EXPECT_FALSE(parse({"--bursty", "0.5"}).ok());
  EXPECT_FALSE(parse({"--mix", "chaos"}).ok());
  EXPECT_FALSE(parse({"--duration-s", "12abc"}).ok());
}

TEST(Cli, DbRouterFlags) {
  const auto r = parse({"--db-policy", "current_load", "--db-mechanism",
                        "modified"});
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.options->config.db_router.policy, lb::PolicyKind::kCurrentLoad);
  EXPECT_EQ(r.options->config.db_router.mechanism,
            lb::MechanismKind::kNonBlocking);
}

TEST(Cli, KvTierFlagsParseAndRoundTrip) {
  const auto r = parse({"--db-tier", "kv", "--kv", "replicas=5,n=3,r=2,w=2",
                        "--zipf-s", "1.1", "--key-space", "5000",
                        "--kv-millibottlenecks"});
  ASSERT_TRUE(r.ok()) << r.error;
  const auto& c = r.options->config;
  EXPECT_EQ(c.db_tier, server::DbTier::kKv);
  EXPECT_EQ(c.kv.replicas, 5);
  EXPECT_EQ(c.kv.n, 3);
  EXPECT_EQ(c.kv.r, 2);
  EXPECT_EQ(c.kv.w, 2);
  // The parsed config round-trips through its canonical rendering.
  std::string err;
  const auto again = sim::parse_spec<kv::KvConfig>(sim::spec_text(c.kv), &err);
  ASSERT_TRUE(again.has_value()) << err;
  EXPECT_EQ(sim::spec_text(*again), sim::spec_text(c.kv));
  EXPECT_DOUBLE_EQ(c.workload.zipf_s, 1.1);
  EXPECT_EQ(c.workload.key_space, 5'000u);
  EXPECT_TRUE(c.kv_millibottlenecks);
}

TEST(Cli, DbTierParsesBothNames) {
  EXPECT_EQ(parse({"--db-tier", "mysql"}).options->config.db_tier,
            server::DbTier::kMysql);
  EXPECT_EQ(parse({"--db-tier", "kv"}).options->config.db_tier,
            server::DbTier::kKv);
}

TEST(Cli, RejectsUnknownDbTier) {
  const auto r = parse({"--db-tier", "postgres"});
  ASSERT_FALSE(r.ok());
  EXPECT_NE(r.error.find("unknown db tier: postgres"), std::string::npos);
  EXPECT_NE(r.error.find("expected mysql|kv"), std::string::npos);
}

TEST(Cli, RejectsBadKvConfig) {
  // The quorum-geometry reason surfaces through the CLI error verbatim.
  const auto r = parse({"--db-tier", "kv", "--kv", "n=3,r=1,w=1"});
  ASSERT_FALSE(r.ok());
  EXPECT_NE(r.error.find("bad --kv:"), std::string::npos) << r.error;
  EXPECT_NE(r.error.find("r+w must exceed n"), std::string::npos) << r.error;
  EXPECT_FALSE(parse({"--db-tier", "kv", "--kv", "bogus=1"}).ok());
  EXPECT_FALSE(parse({"--db-tier", "kv", "--zipf-s", "-1"}).ok());
  EXPECT_FALSE(parse({"--db-tier", "kv", "--key-space", "0"}).ok());
}

TEST(Cli, RejectsKvFlagsWithoutKvTier) {
  for (auto args : {std::vector<std::string>{"--zipf-s", "1.0"},
                    std::vector<std::string>{"--key-space", "1000"},
                    std::vector<std::string>{"--kv", "replicas=5"},
                    std::vector<std::string>{"--kv-millibottlenecks"}}) {
    const auto r = parse_cli(args);
    ASSERT_FALSE(r.ok());
    EXPECT_NE(r.error.find("require --db-tier kv"), std::string::npos)
        << r.error;
  }
}

TEST(Cli, RunCliKvSmoke) {
  auto r = parse({"--db-tier", "kv", "--clients", "200", "--think-ms", "100",
                  "--duration-s", "1", "--quiet", "--no-millibottlenecks"});
  ASSERT_TRUE(r.ok()) << r.error;
  EXPECT_EQ(run_cli(*r.options), 0);
}

TEST(Cli, DbRouterProbingReachesTheSummary) {
  // Prequal at the DB router only: the Apache tier does not probe, so every
  // probe and probe-driven pick in the export comes from the routers.
  const auto path = std::filesystem::temp_directory_path() /
                    "ntier_cli_db_probing.json";
  auto r = parse({"--mysql", "2", "--db-policy", "prequal", "--duration-s",
                  "4", "--quiet", "--json", path.string()});
  ASSERT_TRUE(r.ok()) << r.error;
  ASSERT_EQ(run_cli(*r.options), 0);
  std::ifstream in(path);
  const std::string json((std::istreambuf_iterator<char>(in)),
                         std::istreambuf_iterator<char>());
  std::filesystem::remove(path);
  auto counter = [&json](const std::string& key) -> std::uint64_t {
    const auto at = json.find("\"" + key + "\":");
    if (at == std::string::npos) return 0;
    return std::stoull(json.substr(at + key.size() + 3));
  };
  EXPECT_GT(counter("probes_sent"), 0u) << json;
  EXPECT_GT(counter("probe_picks"), 0u) << json;
}

TEST(Cli, CacheTierFlagsParseAndRoundTrip) {
  const auto r = parse({"--db-tier", "kv", "--cache-tier", "--cache",
                        "nodes=3,entry=1024,inval_queue=256,bytes=1048576,"
                        "ttl_ms=2500,coalesce=0"});
  ASSERT_TRUE(r.ok()) << r.error;
  const auto& c = r.options->config;
  EXPECT_TRUE(c.cache_tier);
  EXPECT_EQ(c.cache.nodes, 3);
  EXPECT_EQ(c.cache.bytes, 1'048'576u);
  EXPECT_EQ(c.cache.entry_bytes, 1'024u);
  EXPECT_EQ(c.cache.ttl, sim::SimTime::millis(2500));
  EXPECT_EQ(c.cache.invalidation_queue_capacity, 256u);
  EXPECT_FALSE(c.cache.coalesce);
  // The parsed config round-trips through its canonical rendering.
  std::string err;
  const auto again =
      sim::parse_spec<cache::CacheConfig>(sim::spec_text(c.cache), &err);
  ASSERT_TRUE(again.has_value()) << err;
  EXPECT_EQ(sim::spec_text(*again), sim::spec_text(c.cache));
}

TEST(Cli, RejectsCacheTierWithoutKvTier) {
  const auto r = parse({"--cache-tier"});
  ASSERT_FALSE(r.ok());
  EXPECT_NE(r.error.find("--cache-tier requires --db-tier kv"),
            std::string::npos)
      << r.error;
  EXPECT_FALSE(parse({"--db-tier", "mysql", "--cache-tier"}).ok());
}

TEST(Cli, RejectsCacheFlagsWithoutCacheTier) {
  const auto r = parse({"--cache", "nodes=2"});
  ASSERT_FALSE(r.ok());
  EXPECT_NE(r.error.find("--cache requires --cache-tier"), std::string::npos)
      << r.error;
  // The per-key spellings of --cache are gone: each is an unknown flag.
  for (const char* flag : {"--cache-bytes", "--cache-ttl-ms", "--cache-coalesce"}) {
    const auto removed = parse({"--db-tier", "kv", "--cache-tier", flag, "1"});
    ASSERT_FALSE(removed.ok()) << flag;
    EXPECT_EQ(removed.error, std::string("unknown flag: ") + flag);
  }
}

TEST(Cli, RejectsBadCacheConfig) {
  const auto r = parse({"--db-tier", "kv", "--cache-tier", "--cache",
                        "bogus=1"});
  ASSERT_FALSE(r.ok());
  EXPECT_NE(r.error.find("bad --cache:"), std::string::npos) << r.error;
  EXPECT_NE(r.error.find("unknown key"), std::string::npos) << r.error;
  // The geometry reason surfaces through the CLI error verbatim.
  const auto tiny = parse({"--db-tier", "kv", "--cache-tier", "--cache",
                           "bytes=16"});
  ASSERT_FALSE(tiny.ok());
  EXPECT_NE(tiny.error.find("cannot hold a single entry"), std::string::npos)
      << tiny.error;
  EXPECT_FALSE(parse({"--db-tier", "kv", "--cache-tier", "--cache",
                      "bytes=0"}).ok());
  EXPECT_FALSE(parse({"--db-tier", "kv", "--cache-tier", "--cache",
                      "ttl_ms=0"}).ok());
  const auto coalesce = parse({"--db-tier", "kv", "--cache-tier", "--cache",
                               "coalesce=2"});
  ASSERT_FALSE(coalesce.ok());
  EXPECT_NE(coalesce.error.find("coalesce must be 0 or 1"), std::string::npos)
      << coalesce.error;
}

TEST(Cli, RunCliCacheSmoke) {
  auto r = parse({"--db-tier", "kv", "--cache-tier", "--clients", "200",
                  "--think-ms", "100", "--duration-s", "1", "--quiet",
                  "--no-millibottlenecks"});
  ASSERT_TRUE(r.ok()) << r.error;
  EXPECT_EQ(run_cli(*r.options), 0);
}

TEST(Cli, RunCliSmoke) {
  // A tiny end-to-end run through the CLI surface: 200 clients, 1 s.
  auto r = parse({"--clients", "200", "--think-ms", "100", "--duration-s", "1",
                  "--quiet", "--no-millibottlenecks"});
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(run_cli(*r.options), 0);
}

TEST(Cli, TraceFlags) {
  const auto rec = parse({"--record-trace", "/tmp/a.csv"});
  ASSERT_TRUE(rec.ok());
  EXPECT_EQ(rec.options->record_trace_path, "/tmp/a.csv");
  const auto rep = parse({"--replay-trace", "/tmp/b.csv"});
  ASSERT_TRUE(rep.ok());
  EXPECT_EQ(rep.options->replay_trace_path, "/tmp/b.csv");
  EXPECT_FALSE(parse({"--record-trace"}).ok());
  // Recording while replaying is rejected: the closed loop is idle during
  // replay, so there is nothing new to record.
  const auto both = parse({"--record-trace", "/tmp/a.csv", "--replay-trace",
                           "/tmp/b.csv"});
  ASSERT_FALSE(both.ok());
  EXPECT_NE(both.error.find("cannot be combined with a replay source"),
            std::string::npos)
      << both.error;
}

TEST(Cli, ParseDoubleIsStrict) {
  // from_chars semantics: no trailing garbage, no locale surprises.
  EXPECT_FALSE(parse({"--duration-s", "12abc"}).ok());
  EXPECT_FALSE(parse({"--duration-s", "1,5"}).ok());
  EXPECT_FALSE(parse({"--duration-s", ""}).ok());
  EXPECT_FALSE(parse({"--duration-s", "nan"}).ok());
  EXPECT_FALSE(parse({"--think-ms", "1e"}).ok());
  const auto ok = parse({"--duration-s", "1.5e1"});
  ASSERT_TRUE(ok.ok());
  EXPECT_EQ(ok.options->config.duration, sim::SimTime::from_seconds(15));
}

TEST(Cli, ParseTimeIsCheckedAgainstInt64Nanoseconds) {
  // The one flag-to-SimTime conversion ntier_run and ntier_trace share.
  EXPECT_EQ(sim::parse_time("50", 1e-3), sim::SimTime::millis(50));
  EXPECT_EQ(sim::parse_time("1.5e1", 1), sim::SimTime::seconds(15));
  EXPECT_EQ(sim::parse_time("1e-6", 1e-3), sim::SimTime::nanos(1));
  EXPECT_EQ(sim::parse_time("9e9", 1), sim::SimTime::seconds(9'000'000'000));
  for (const char* bad : {"0", "-1", "1e-10", "1e300", "9.3e9", "inf",
                          "-inf", "nan", "", "1,5", "50ms"})
    EXPECT_FALSE(sim::parse_time(bad, 1).has_value()) << bad;
  EXPECT_FALSE(sim::parse_time("0.0000001", 1e-3).has_value());
}

TEST(Cli, EveryTimeFlagRejectsValuesOutsideInt64Nanoseconds) {
  // Values that used to abort the run: a duration past int64 ns, a think
  // time that wrapped negative, and windows that rounded to 0 ns.
  for (const char* flag : {"--think-ms", "--duration-s", "--deadline-ms",
                           "--probe-staleness", "--replay-timeout-ms"}) {
    for (const char* v : {"1e300", "inf", "nan", "0", "-5", "1e-10"}) {
      const auto r = parse({flag, v});
      ASSERT_FALSE(r.ok()) << flag << " " << v;
      EXPECT_EQ(r.error, std::string("bad ") + flag) << v;
    }
  }
  // --cache's ttl_ms goes through the same conversion.
  for (const char* v : {"1e300", "inf", "nan", "0", "-5", "1e-10"}) {
    const auto r = parse({"--db-tier", "kv", "--cache-tier", "--cache",
                          std::string("ttl_ms=") + v});
    ASSERT_FALSE(r.ok()) << v;
    EXPECT_NE(r.error.find("bad --cache: cache config: ttl_ms must be"),
              std::string::npos)
        << r.error;
  }
}

TEST(Cli, TraceGenFlagsParse) {
  const auto r = parse({"--trace-gen", "duration=30,base-rps=500",
                        "--trace-out", "/tmp/day.csv"});
  ASSERT_TRUE(r.ok()) << r.error;
  ASSERT_TRUE(r.options->trace_gen.has_value());
  EXPECT_DOUBLE_EQ(r.options->trace_gen->duration_s, 30.0);
  EXPECT_DOUBLE_EQ(r.options->trace_gen->base_rps, 500.0);
  EXPECT_EQ(r.options->trace_out_path, "/tmp/day.csv");
}

TEST(Cli, RejectsBadTraceGenSpecAtParseTime) {
  const auto r = parse({"--trace-gen", "frobnicate=1"});
  ASSERT_FALSE(r.ok());
  EXPECT_NE(r.error.find("bad --trace-gen"), std::string::npos) << r.error;
  EXPECT_FALSE(parse({"--trace-gen", "duration=0"}).ok());
  EXPECT_FALSE(parse({"--trace-gen"}).ok());
}

TEST(Cli, TraceReplayAliasAndKnobs) {
  const auto r = parse({"--replay-trace", "/tmp/day.csv",
                        "--replay-timeout-ms", "8000", "--replay-scale",
                        "0.5"});
  ASSERT_TRUE(r.ok()) << r.error;
  EXPECT_EQ(r.options->replay_trace_path, "/tmp/day.csv");
  EXPECT_EQ(r.options->replay_timeout, sim::SimTime::millis(8000));
  EXPECT_DOUBLE_EQ(r.options->replay_scale, 0.5);
  EXPECT_FALSE(parse({"--replay-timeout-ms", "0", "--replay-trace",
                      "/tmp/d.csv"}).ok());
  EXPECT_FALSE(parse({"--replay-scale", "-1", "--replay-trace",
                      "/tmp/d.csv"}).ok());
  // --replay-trace is the one spelling; the old alias is an unknown flag.
  const auto alias = parse({"--trace-replay", "/tmp/day.csv"});
  ASSERT_FALSE(alias.ok());
  EXPECT_EQ(alias.error, "unknown flag: --trace-replay");
}

TEST(Cli, ReplayKnobsRequireAReplaySource) {
  for (auto args : {std::vector<std::string>{"--replay-timeout-ms", "1000"},
                    std::vector<std::string>{"--replay-scale", "2"}}) {
    const auto r = parse_cli(args);
    ASSERT_FALSE(r.ok());
    EXPECT_NE(r.error.find("require --replay-trace or --trace-gen"),
              std::string::npos)
        << r.error;
  }
}

TEST(Cli, RejectsConflictingTraceSources) {
  const auto both = parse({"--trace-gen", "duration=10", "--replay-trace",
                           "/tmp/d.csv"});
  ASSERT_FALSE(both.ok());
  EXPECT_NE(both.error.find("both name a replay source"), std::string::npos)
      << both.error;
  const auto out = parse({"--trace-out", "/tmp/d.csv"});
  ASSERT_FALSE(out.ok());
  EXPECT_NE(out.error.find("--trace-out requires --trace-gen"),
            std::string::npos)
      << out.error;
  const auto rec = parse({"--record-trace", "/tmp/a.csv", "--trace-gen",
                          "duration=10"});
  ASSERT_FALSE(rec.ok());
  EXPECT_NE(rec.error.find("cannot be combined with a replay source"),
            std::string::npos)
      << rec.error;
}

TEST(Cli, TraceGenToFileThenReplayRoundTrip) {
  const std::string path = "/tmp/ntier_cli_trace_gen_day.csv";
  auto gen = parse({"--quiet", "--trace-gen",
                    "seed=7,duration=2,base-rps=200,session-mean=2",
                    "--trace-out", path});
  ASSERT_TRUE(gen.ok()) << gen.error;
  ASSERT_EQ(run_cli(*gen.options), 0);
  ASSERT_TRUE(std::ifstream(path).good());

  auto rep = parse({"--duration-s", "3", "--quiet", "--no-millibottlenecks",
                    "--replay-trace", path, "--replay-timeout-ms", "2000"});
  ASSERT_TRUE(rep.ok()) << rep.error;
  EXPECT_EQ(run_cli(*rep.options), 0);
  std::remove(path.c_str());
}

TEST(Cli, UsageMentionsTraceWorkloadFlags) {
  const auto u = usage_text();
  for (const char* needle :
       {"--trace-gen", "--trace-out", "--replay-trace", "--replay-timeout-ms", "--replay-scale",
        "at_ns,client,interaction[,key,priority]"}) {
    EXPECT_NE(u.find(needle), std::string::npos) << needle;
  }
}

TEST(Cli, ObservabilityFlags) {
  const auto r = parse({"--telemetry", "--detect", "--trace", "/tmp/t.jsonl",
                        "--trace-sample", "tail"});
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE(r.options->config.telemetry.enabled);
  EXPECT_TRUE(r.options->config.online_detect);
  EXPECT_TRUE(r.options->config.event_trace);
  EXPECT_TRUE(r.options->config.trace_tail.enabled);

  // The explicit default keeps full ring retention.
  const auto full =
      parse({"--trace", "/tmp/t.jsonl", "--trace-sample", "full"});
  ASSERT_TRUE(full.ok());
  EXPECT_FALSE(full.options->config.trace_tail.enabled);

  EXPECT_FALSE(parse({"--trace-sample", "sometimes"}).ok());
  EXPECT_FALSE(parse({"--trace-sample"}).ok());
  // Tail sampling needs the detector's marks and a place to write the sample.
  EXPECT_FALSE(parse({"--trace", "/tmp/t.jsonl", "--trace-sample", "tail"}).ok());
  EXPECT_FALSE(parse({"--detect", "--trace-sample", "tail"}).ok());
}

TEST(Cli, RecordThenReplayRoundTrip) {
  const std::string path = "/tmp/ntier_cli_trace_roundtrip.csv";
  auto rec = parse({"--clients", "200", "--think-ms", "100", "--duration-s",
                    "1", "--quiet", "--no-millibottlenecks", "--record-trace",
                    path});
  ASSERT_TRUE(rec.ok());
  ASSERT_EQ(run_cli(*rec.options), 0);

  auto rep = parse({"--duration-s", "2", "--quiet", "--no-millibottlenecks",
                    "--replay-trace", path});
  ASSERT_TRUE(rep.ok());
  EXPECT_EQ(run_cli(*rep.options), 0);
  std::remove(path.c_str());
}

TEST(Cli, ReplayMissingFileFails) {
  auto rep = parse({"--quiet", "--replay-trace", "/tmp/definitely_missing_42.csv"});
  ASSERT_TRUE(rep.ok());
  EXPECT_EQ(run_cli(*rep.options), 1);
}

TEST(Cli, SweepFlags) {
  const auto r = parse({"--sweep-seeds", "8", "--jobs", "4"});
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.options->sweep_seeds, 8);
  EXPECT_EQ(r.options->jobs, 4);
  EXPECT_FALSE(parse({"--sweep-seeds", "0"}).ok());
  EXPECT_FALSE(parse({"--jobs", "-1"}).ok());
  // Per-run trace artifacts make no sense for an aggregate sweep...
  EXPECT_FALSE(parse({"--sweep-seeds", "2", "--trace", "/tmp/t.jsonl"}).ok());
  EXPECT_FALSE(
      parse({"--sweep-seeds", "2", "--record-trace", "/tmp/t.csv"}).ok());
  // ...but replaying one trace across seed-forked replicas is fine.
  EXPECT_TRUE(
      parse({"--sweep-seeds", "2", "--replay-trace", "/tmp/t.csv"}).ok());
}

TEST(Cli, SweepRunWritesAggregateOutputs) {
  const std::string json = "/tmp/ntier_cli_sweep.json";
  const std::string csv_dir = "/tmp/ntier_cli_sweep_csv";
  auto r = parse({"--clients", "200", "--think-ms", "100", "--duration-s", "1",
                  "--quiet", "--no-millibottlenecks", "--sweep-seeds", "2",
                  "--jobs", "2", "--json", json, "--csv", csv_dir});
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(run_cli(*r.options), 0);
  std::ifstream f(json);
  ASSERT_TRUE(f.good());
  std::stringstream ss;
  ss << f.rdbuf();
  EXPECT_NE(ss.str().find("\"ci95_half\""), std::string::npos);
  EXPECT_NE(ss.str().find("\"per_run\""), std::string::npos);
  EXPECT_TRUE(std::ifstream(csv_dir + "/sweep_aggregate.csv").good());
  EXPECT_TRUE(std::ifstream(csv_dir + "/sweep_runs.csv").good());
  std::remove(json.c_str());
  std::filesystem::remove_all(csv_dir);
}

TEST(Cli, RunCliWritesJson) {
  const std::string path = "/tmp/ntier_cli_test_summary.json";
  auto r = parse({"--clients", "200", "--think-ms", "100", "--duration-s", "1",
                  "--quiet", "--no-millibottlenecks", "--json", path});
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(run_cli(*r.options), 0);
  std::ifstream f(path);
  ASSERT_TRUE(f.good());
  std::stringstream ss;
  ss << f.rdbuf();
  EXPECT_NE(ss.str().find("\"mean_rt_ms\""), std::string::npos);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace ntier::cli
