// Microbenchmark of the always-on observability hot paths: what one
// record()/push() costs in nanoseconds with the telemetry layer off, on,
// and with the full sink stack (telemetry feed + online detector + tail
// sampler) attached — the number that justifies "always-on".
#include <chrono>
#include <cstdint>
#include <fstream>
#include <iomanip>
#include <iostream>
#include <string>

#include "experiment/report.h"
#include "metrics/telemetry.h"
#include "millib/online_detector.h"
#include "obs/trace.h"

using namespace ntier;
using experiment::BenchOptions;
using obs::EventKind;
using obs::Tier;
using obs::TraceEvent;
using sim::SimTime;

namespace {
// Cheap deterministic value stream (no std:: RNG in the timed loop).
std::uint64_t lcg_state = 0x9e3779b97f4a7c15ull;
inline double next_value() {
  lcg_state = lcg_state * 6364136223846793005ull + 1442695040888963407ull;
  return 1.0 + static_cast<double>((lcg_state >> 33) & 0xfff) * 0.5;
}

template <typename Fn>
double ns_per_op(std::uint64_t iters, Fn&& fn) {
  const auto t0 = std::chrono::steady_clock::now();
  for (std::uint64_t i = 0; i < iters; ++i) fn(i);
  const auto t1 = std::chrono::steady_clock::now();
  return std::chrono::duration<double, std::nano>(t1 - t0).count() /
         static_cast<double>(iters);
}

// The realistic event mix the sinks see: balancer queue deltas, iowait
// samples and client completions, timestamps advancing 10 us per event.
TraceEvent mixed_event(std::uint64_t i) {
  TraceEvent e;
  e.at = SimTime::micros(static_cast<std::int64_t>(i) * 10);
  switch (i % 4) {
    case 0:
      e.kind = EventKind::kGetEndpointAttempt;
      e.tier = Tier::kBalancer;
      e.node = 0;
      e.worker = static_cast<std::int32_t>(i / 4 % 4);
      e.request = i + 1;
      break;
    case 1:
      e.kind = EventKind::kEndpointRelease;
      e.tier = Tier::kBalancer;
      e.node = 0;
      e.worker = static_cast<std::int32_t>(i / 4 % 4);
      e.request = i;
      break;
    case 2:
      e.kind = EventKind::kIoWait;
      e.tier = Tier::kTomcat;
      e.node = static_cast<std::int16_t>(i / 4 % 4);
      e.value = 0.05;
      break;
    default:
      e.kind = EventKind::kClientDone;
      e.tier = Tier::kClient;
      e.request = i;
      e.value = next_value();
      break;
  }
  return e;
}

void row(const std::string& what, double ns) {
  std::cout << "  " << std::left << std::setw(52) << what << std::right
            << std::setw(10) << std::fixed << std::setprecision(1) << ns
            << " ns/op\n";
}
}  // namespace

int main(int argc, char** argv) {
  const auto opt = BenchOptions::parse(argc, argv);
  std::cout << "==================================================================\n"
            << "Microbench: telemetry hot-path cost (ns per record)\n"
            << "==================================================================\n";

  const std::uint64_t iters = opt.quick ? 400'000 : 4'000'000;
  std::cout << "  (" << iters << " iterations per loop)\n";

  // -- building blocks ---------------------------------------------------------
  metrics::TelemetryRegistry registry;
  metrics::Instrument& ins = registry.instrument("bench.rt_ms");
  const double instrument_ns = ns_per_op(iters, [&](std::uint64_t i) {
    ins.record(SimTime::micros(static_cast<std::int64_t>(i) * 10),
               next_value());
  });
  row("Instrument::record (50 ms windowed series)", instrument_ns);

  // -- the emission path, as instrumentation sites see it ----------------------
  obs::TraceCollector* off = nullptr;
  const double off_ns = ns_per_op(iters, [&](std::uint64_t i) {
    NTIER_TRACE_EVENT(off, SimTime::micros(static_cast<std::int64_t>(i)),
                      EventKind::kClientDone, Tier::kClient, 0, 0, i, 1.0);
  });
  row("NTIER_TRACE_EVENT, tracing off (null collector)", off_ns);

  obs::TraceConfig ring_cfg;
  ring_cfg.capacity = 1u << 16;  // steady-state = overwrite path
  obs::TraceCollector ring(ring_cfg);
  const double ring_ns = ns_per_op(
      iters, [&](std::uint64_t i) { ring.push(mixed_event(i)); });
  row("TraceCollector::push, ring only (--trace)", ring_ns);

  obs::TraceConfig sink_cfg;
  sink_cfg.ring = false;
  obs::TraceCollector bus(sink_cfg);
  metrics::TelemetryRegistry reg2;
  metrics::TelemetryFeed feed(reg2, /*num_tomcats=*/4);
  millib::OnlineDetector detector;
  bus.add_sink(&feed);
  bus.add_sink(&detector);
  const double sinks_ns = ns_per_op(
      iters, [&](std::uint64_t i) { bus.push(mixed_event(i)); });
  row("push + telemetry feed + online detector", sinks_ns);

  obs::TraceConfig tail_cfg;
  tail_cfg.ring = false;
  tail_cfg.tail.enabled = true;
  tail_cfg.tail.horizon = SimTime::millis(50);  // ~5k buffered at 10 us/event
  obs::TraceCollector tail(tail_cfg);
  const double tail_ns = ns_per_op(
      iters, [&](std::uint64_t i) { tail.push(mixed_event(i)); });
  row("push + tail-sampling holding buffer", tail_ns);

  // Keep the collectors' side effects observable.
  if (ring.emitted() + bus.emitted() + tail.emitted() != 3 * iters ||
      ins.series().total_count() != static_cast<std::int64_t>(iters))
    std::cout << "  (self-check failed: op counts off)\n";

  // The number the "always-on" claim rests on: full sink stack per event.
  const bool pass = sinks_ns <= 2000.0;
  std::cout << "\nverdict: telemetry overhead " << std::fixed
            << std::setprecision(1) << sinks_ns
            << " ns/event with the full sink stack (" << off_ns
            << " ns/event when off) -- " << (pass ? "PASS" : "FAIL")
            << " (<= 2000 ns/event required)\n";
  if (!opt.json_path.empty()) {
    std::ofstream f(opt.json_path, std::ios::app);
    if (f)
      f << "{\"bench\":\"" << opt.program
        << "\",\"run\":1,\"label\":\"micro_telemetry\","
           "\"instrument_ns\":" << instrument_ns
        << ",\"push_off_ns\":" << off_ns << ",\"push_ring_ns\":" << ring_ns
        << ",\"push_sinks_ns\":" << sinks_ns << ",\"push_tail_ns\":" << tail_ns
        << "}\n";
  }
  return pass ? 0 : 1;
}
