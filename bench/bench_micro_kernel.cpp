// Microbenchmarks of the simulator hot paths (google-benchmark): event
// queue throughput, processor-sharing CPU churn, balancer decision latency,
// RNG forks and trace generation, and end-to-end
// simulated-seconds-per-wall-second of the full testbed.
#include <benchmark/benchmark.h>

#include <vector>

#include "experiment/experiment.h"
#include "lb/load_balancer.h"
#include "os/cpu.h"
#include "sim/rng.h"
#include "sim/simulation.h"
#include "workload/trace_gen.h"

using namespace ntier;

static void BM_EventQueueScheduleFire(benchmark::State& state) {
  for (auto _ : state) {
    sim::Simulation s;
    for (int i = 0; i < 10'000; ++i)
      s.after(sim::SimTime::micros(i), [] {});
    s.run();
    benchmark::DoNotOptimize(s.events_executed());
  }
  state.SetItemsProcessed(state.iterations() * 10'000);
}
BENCHMARK(BM_EventQueueScheduleFire);

// Timer-reset pattern: every retransmit/timeout timer in the testbed is
// scheduled and then cancelled when the response lands first. The old
// priority_queue + unordered_set implementation paid a hash insert + erase
// per event here; the indexed heap cancels in O(1).
static void BM_EventQueueCancelHeavy(benchmark::State& state) {
  for (auto _ : state) {
    sim::Simulation s;
    for (int i = 0; i < 10'000; ++i) {
      s.after(sim::SimTime::micros(i), [&s, i] {
        const auto timeout =
            s.after(sim::SimTime::millis(3), [] { /* would retransmit */ });
        s.after(sim::SimTime::micros(200 + (i % 97)),
                [&s, timeout] { s.cancel(timeout); });
      });
    }
    s.run();
    benchmark::DoNotOptimize(s.events_executed());
  }
  state.SetItemsProcessed(state.iterations() * 30'000);
}
BENCHMARK(BM_EventQueueCancelHeavy);

// The paper's operating point in miniature: N closed-loop clients, each a
// think timer of mean 7 s that re-arms itself, so about N timers are pending
// at once. Every expiry starts a "request": a chain of sub-millisecond hops
// guarded by a 3 s timeout that the last hop cancels, then the next think.
// Measured in steady state (the population is warmed up first); items are
// events fired. This is the deep-heap shape of the perf ledger's
// sim.event_ns driver, with the near-term churn the real run adds.
namespace {
struct DeepTimers {
  static constexpr int kHops = 8;
  sim::Simulation sim;
  std::vector<sim::SimTime> think, hop;
  std::size_t next_think = 0, next_hop = 0;

  explicit DeepTimers(std::size_t clients) {
    sim::Rng rng(7);
    think.resize(1 << 16);
    hop.resize(1 << 16);
    for (auto& d : think) d = rng.exponential_time(sim::SimTime::seconds(7));
    for (auto& d : hop) d = rng.exponential_time(sim::SimTime::micros(150));
    for (std::size_t i = 0; i < clients; ++i) arm_think();
  }
  void arm_think() {
    sim.after(think[next_think++ % think.size()], [this] { start(); });
  }
  void start() {
    const sim::EventId timeout = sim.after(sim::SimTime::seconds(3), [] {});
    step(kHops, timeout);
  }
  void step(int left, sim::EventId timeout) {
    if (left == 0) {
      sim.cancel(timeout);
      arm_think();
      return;
    }
    sim.after(hop[next_hop++ % hop.size()],
              [this, left, timeout] { step(left - 1, timeout); });
  }
};
}  // namespace

static void BM_EventQueueDeepTimers(benchmark::State& state) {
  DeepTimers t(static_cast<std::size_t>(state.range(0)));
  t.sim.run_until(sim::SimTime::seconds(10));  // past the first think wave
  const std::uint64_t before = t.sim.events_executed();
  for (auto _ : state)
    benchmark::DoNotOptimize(t.sim.run_until(t.sim.now() + sim::SimTime::millis(20)));
  state.SetItemsProcessed(
      static_cast<std::int64_t>(t.sim.events_executed() - before));
}
BENCHMARK(BM_EventQueueDeepTimers)->Arg(7000)->Arg(28000)->Arg(70000);

static void BM_CpuProcessorSharing(benchmark::State& state) {
  const int jobs = static_cast<int>(state.range(0));
  for (auto _ : state) {
    sim::Simulation s;
    os::CpuResource cpu(s, 4);
    int done = 0;
    for (int i = 0; i < jobs; ++i)
      s.after(sim::SimTime::micros(13 * i),
              [&] { cpu.submit(sim::SimTime::micros(500), [&] { ++done; }); });
    s.run();
    benchmark::DoNotOptimize(done);
  }
  state.SetItemsProcessed(state.iterations() * jobs);
}
BENCHMARK(BM_CpuProcessorSharing)->Arg(100)->Arg(1000)->Arg(10000);

// One current_load decision plus its response, by balancer width (workers).
// `sidelined` workers are marked Busy first; the simulated clock never moves,
// so every assign walks them (lazy-recovery check plus skip) before picking.
static void balancer_assign(benchmark::State& state, int sidelined) {
  sim::Simulation s;
  const int workers = static_cast<int>(state.range(0));
  lb::LoadBalancer bal(s, workers, lb::make_policy(lb::PolicyKind::kCurrentLoad),
                       lb::make_acquirer(lb::MechanismKind::kNonBlocking), {});
  for (int i = 0; i < sidelined; ++i) bal.report_failure(i * workers / sidelined);
  proto::RequestPool requests;
  const proto::RequestRef req = requests.make();
  for (auto _ : state) {
    bal.assign(req, [&](int idx) {
      benchmark::DoNotOptimize(idx);
      bal.on_response(idx, req);
    });
  }
  state.SetItemsProcessed(state.iterations());
}

static void BM_BalancerAssign(benchmark::State& state) {
  balancer_assign(state, 0);
}
BENCHMARK(BM_BalancerAssign)->Arg(4)->Arg(64)->Arg(256)->Arg(1024);

static void BM_BalancerAssignSidelined(benchmark::State& state) {
  balancer_assign(state, static_cast<int>(state.range(0)) / 10);
}
BENCHMARK(BM_BalancerAssignSidelined)->Arg(1024);

// A forked stream that draws a few dozen numbers: the shape of one session
// of a generated day, or one component's stream in a short run.
static void BM_RngFork(benchmark::State& state) {
  sim::Rng parent(static_cast<std::uint64_t>(state.range(0)));
  for (auto _ : state) {
    sim::Rng child = parent.fork();
    std::uint64_t acc = 0;
    for (int i = 0; i < 50; ++i) acc += child.next_u64();
    benchmark::DoNotOptimize(acc);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_RngFork)->Arg(42);

// The perf ledger's trace_day_kv day at 1/10 duration (15 s, ~114k
// arrivals): session thinning, per-session forks, in-order emission.
static void BM_TraceGenerateDay(benchmark::State& state) {
  workload::TraceGenSpec spec;
  spec.seed = static_cast<std::uint64_t>(state.range(0));
  spec.duration_s = 15;
  spec.base_rps = 9'000;
  spec.diurnal_amplitude = 0.35;
  spec.flash_at_s = 0.55 * spec.duration_s;
  spec.flash_duration_s = 0.15 * spec.duration_s;
  spec.flash_multiplier = 1.6;
  spec.session_mean = 5;
  spec.think_mean_s = 0.5;
  spec.abandon_p = 0.05;
  workload::WorkloadParams wp = experiment::ExperimentConfig::scaled(0.1).workload;
  wp.key_space = 10'000;
  wp.zipf_s = 0.99;
  const workload::RubbosWorkload w(wp);
  const workload::TraceGenerator gen(spec);
  std::size_t arrivals = 0;
  for (auto _ : state) {
    const auto trace = gen.generate(w);
    arrivals += trace.size();
    benchmark::DoNotOptimize(trace.events().data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(arrivals));
}
BENCHMARK(BM_TraceGenerateDay)->Arg(42)->Unit(benchmark::kMillisecond);

static void BM_FullTestbedSimulatedSecond(benchmark::State& state) {
  for (auto _ : state) {
    auto c = experiment::ExperimentConfig::scaled(0.1);
    c.duration = sim::SimTime::seconds(1);
    c.tracing = false;
    experiment::Experiment e(std::move(c));
    e.run();
    benchmark::DoNotOptimize(e.log().completed());
  }
  state.SetLabel("1 simulated second @ 10k req/s");
}
BENCHMARK(BM_FullTestbedSimulatedSecond)->Unit(benchmark::kMillisecond);
