#include "obs/trace.h"

#include <gtest/gtest.h>

#include <array>
#include <sstream>
#include <stdexcept>

#include "obs/trace_io.h"
#include "test_util.h"

namespace ntier::obs {
namespace {

using sim::SimTime;

TraceEvent make_event(std::int64_t t_ms, EventKind kind, std::uint64_t req) {
  TraceEvent e;
  e.at = SimTime::millis(t_ms);
  e.kind = kind;
  e.tier = Tier::kBalancer;
  e.node = 2;
  e.worker = 1;
  e.request = req;
  e.value = 0.5 * static_cast<double>(req);
  e.aux = 7;
  return e;
}

TEST(TraceCollector, RingOverwritesOldestAndCountsDrops) {
  TraceConfig config;
  config.capacity = 4;
  TraceCollector trace(config);
  for (std::uint64_t i = 0; i < 10; ++i)
    trace.push(make_event(static_cast<std::int64_t>(i), EventKind::kClientSend, i));

  EXPECT_EQ(trace.emitted(), 10u);
  EXPECT_EQ(trace.size(), 4u);
  EXPECT_EQ(trace.dropped(), 6u);

  // The retained window is the most recent 4 events, in chronological order.
  const auto snap = trace.snapshot();
  ASSERT_EQ(snap.size(), 4u);
  for (std::size_t i = 0; i < snap.size(); ++i)
    EXPECT_EQ(snap[i].request, 6 + i);
}

TEST(TraceCollector, EmitMacroIsNullSafe) {
  TraceCollector* none = nullptr;
  // Must neither crash nor evaluate into anything: the macro null-checks.
  NTIER_TRACE_EVENT(none, SimTime::millis(1), EventKind::kClientSend,
                    Tier::kClient, 0, 0, 1u);
  TraceCollector trace;
  TraceCollector* some = &trace;
  NTIER_TRACE_EVENT(some, SimTime::millis(1), EventKind::kClientSend,
                    Tier::kClient, 0, 0, 1u);
  EXPECT_EQ(trace.size(), 1u);
}

TEST(TraceIo, JsonlRoundTripPreservesEveryField) {
  TraceCollector trace;
  trace.push(make_event(3, EventKind::kGetEndpointSkip, 42));
  trace.push(make_event(5, EventKind::kLbValue, 0));
  TraceEvent negative = make_event(7, EventKind::kIoWait, 0);
  negative.worker = -1;
  negative.node = -1;
  negative.value = 0.97;
  trace.push(negative);

  std::ostringstream os;
  write_jsonl(os, trace);
  std::istringstream is(os.str());
  const auto back = read_jsonl(is);

  ASSERT_EQ(back.size(), 3u);
  const auto orig = trace.snapshot();
  for (std::size_t i = 0; i < back.size(); ++i) {
    EXPECT_EQ(back[i].at.ns(), orig[i].at.ns());
    EXPECT_EQ(back[i].kind, orig[i].kind);
    EXPECT_EQ(back[i].tier, orig[i].tier);
    EXPECT_EQ(back[i].node, orig[i].node);
    EXPECT_EQ(back[i].worker, orig[i].worker);
    EXPECT_EQ(back[i].request, orig[i].request);
    EXPECT_DOUBLE_EQ(back[i].value, orig[i].value);
    EXPECT_EQ(back[i].aux, orig[i].aux);
  }
}

// Every kind in the enum — including the newest additions at the tail —
// must survive the serialise/parse round trip; parse_kind iterating up to a
// stale "last kind" sentinel is exactly the regression this catches.
TEST(TraceIo, EveryEventKindRoundTrips) {
  TraceCollector trace;
  const int last = static_cast<int>(EventKind::kKvMigration);
  for (int k = 0; k <= last; ++k)
    trace.push(make_event(k + 1, static_cast<EventKind>(k), 1));
  std::ostringstream os;
  write_jsonl(os, trace);
  std::istringstream is(os.str());
  const auto back = read_jsonl(is);
  ASSERT_EQ(back.size(), static_cast<std::size_t>(last) + 1);
  for (int k = 0; k <= last; ++k)
    EXPECT_EQ(back[static_cast<std::size_t>(k)].kind, static_cast<EventKind>(k));
}

TEST(TraceIo, ReadRejectsMalformedLinesWithLineNumber) {
  std::istringstream is(
      "{\"t_ns\":1,\"kind\":\"client_send\",\"tier\":\"client\",\"node\":0,"
      "\"worker\":0,\"req\":1,\"value\":0,\"aux\":0}\n"
      "not json\n");
  try {
    read_jsonl(is);
    FAIL() << "expected std::runtime_error";
  } catch (const std::runtime_error& err) {
    EXPECT_NE(std::string(err.what()).find("2"), std::string::npos);
  }
}

TEST(TraceIo, ReadRejectsOutOfRangeIdsAndNonFiniteValues) {
  // One well-formed line, then `field` replaced by `bad` on line 2.
  auto read_with = [](const std::string& field, const std::string& bad) {
    std::string line =
        "{\"t_ns\":1,\"kind\":\"lb_value\",\"tier\":\"balancer\",\"node\":0,"
        "\"worker\":0,\"req\":0,\"value\":1,\"aux\":0}\n";
    std::string broken = line;
    const std::string key = "\"" + field + "\":";
    const auto at = broken.find(key) + key.size();
    broken.replace(at, broken.find_first_of(",}", at) - at, bad);
    std::istringstream is(line + broken);
    try {
      read_jsonl(is);
    } catch (const std::runtime_error& err) {
      return std::string(err.what());
    }
    return std::string("accepted");
  };
  EXPECT_EQ(read_with("worker", "1099511627776"),
            "trace line 2: worker out of range");
  EXPECT_EQ(read_with("node", "70000"), "trace line 2: node out of range");
  EXPECT_EQ(read_with("aux", "-2147483649"), "trace line 2: aux out of range");
  for (const char* v : {"nan", "inf", "-inf", "1e999"})
    EXPECT_EQ(read_with("value", v), "trace line 2: bad number for value") << v;
  EXPECT_EQ(read_with("node", "32767"), "accepted");
  EXPECT_EQ(read_with("value", "-0.25"), "accepted");
}

TEST(TraceIo, ParseTraceFormat) {
  EXPECT_EQ(parse_trace_format("jsonl"), TraceFormat::kJsonl);
  EXPECT_EQ(parse_trace_format("chrome"), TraceFormat::kChrome);
  EXPECT_FALSE(parse_trace_format("protobuf").has_value());
}

TEST(TraceIo, ChromeExportIsWellFormed) {
  TraceCollector trace;
  trace.push(make_event(1, EventKind::kPdflushStart, 0));
  trace.push(make_event(4, EventKind::kPdflushStop, 0));
  trace.push(make_event(2, EventKind::kServiceStart, 9));
  trace.push(make_event(3, EventKind::kServiceEnd, 9));
  std::ostringstream os;
  write_chrome_json(os, trace);
  const std::string out = os.str();
  EXPECT_EQ(out.front(), '{');
  EXPECT_NE(out.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(out.find("pdflush"), std::string::npos);
}

TEST(TraceDeterminism, SameSeedSameConfigYieldsByteIdenticalJsonl) {
  // The property scripts and the ntier_trace analyzer rely on: a trace is a
  // pure function of (seed, config), and its JSONL bytes are a pure function
  // of the trace.
  auto make = [] {
    auto cfg = experiment::testing::quick_config(
        lb::PolicyKind::kTotalRequest, lb::MechanismKind::kBlocking,
        /*millibottlenecks=*/true, sim::SimTime::seconds(6));
    cfg.event_trace = true;
    auto e = experiment::testing::run(std::move(cfg));
    std::ostringstream os;
    write_jsonl(os, *e->trace());
    return os.str();
  };
  const std::string a = make();
  const std::string b = make();
  EXPECT_FALSE(a.empty());
  EXPECT_EQ(a, b);  // byte-identical
}

TEST(TraceDeterminism, ExperimentEmitsTheWholeVocabularySpine) {
  auto cfg = experiment::testing::quick_config(
      lb::PolicyKind::kTotalRequest, lb::MechanismKind::kBlocking,
      /*millibottlenecks=*/true, sim::SimTime::seconds(8));
  cfg.event_trace = true;
  auto e = experiment::testing::run(std::move(cfg));
  ASSERT_NE(e->trace(), nullptr);

  std::array<std::uint64_t, 32> by_kind{};
  e->trace()->for_each([&](const TraceEvent& ev) {
    ++by_kind[static_cast<std::size_t>(ev.kind)];
  });
  for (EventKind k :
       {EventKind::kClientSend, EventKind::kSynRetransmit,
        EventKind::kWorkerPickup, EventKind::kGetEndpointAttempt,
        EventKind::kEndpointAcquire, EventKind::kEndpointRelease,
        EventKind::kBackendQueue, EventKind::kServiceStart,
        EventKind::kServiceEnd, EventKind::kPdflushStart,
        EventKind::kPdflushStop, EventKind::kLbValue, EventKind::kIoWait,
        EventKind::kClientDone})
    EXPECT_GT(by_kind[static_cast<std::size_t>(k)], 0u)
        << "missing " << to_string(k);
}

}  // namespace
}  // namespace ntier::obs
