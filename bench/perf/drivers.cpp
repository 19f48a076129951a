#include "drivers.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <vector>

#include "alloc_count.h"
#include "cache/store.h"
#include "kv/replica.h"
#include "kv/tier.h"
#include "os/cpu.h"
#include "os/node.h"
#include "sim/rng.h"
#include "sim/simulation.h"

namespace perf::drivers {
namespace {

using ntier::sim::SimTime;
using Clock = std::chrono::steady_clock;

constexpr int kBatches = 3;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// Median-of-batches cost: `batch` runs one timed batch and returns
/// {wall seconds, ops, allocations}.
template <typename Batch>
Cost measure(Batch&& batch) {
  std::vector<double> ns;
  double allocs_per_op = 0;
  for (int b = 0; b < kBatches; ++b) {
    const auto [secs, ops, allocs] = batch();
    ns.push_back(secs * 1e9 / static_cast<double>(ops));
    allocs_per_op = static_cast<double>(allocs) / static_cast<double>(ops);
  }
  std::sort(ns.begin(), ns.end());
  return {ns[ns.size() / 2], allocs_per_op};
}

struct BatchResult {
  double secs;
  std::uint64_t ops;
  std::uint64_t allocs;
};

std::vector<std::uint64_t> zipf_keys(std::uint64_t key_space, double s,
                                     std::size_t n, std::uint64_t seed) {
  std::vector<double> cdf(key_space);
  double acc = 0;
  for (std::uint64_t k = 0; k < key_space; ++k) {
    acc += 1.0 / std::pow(static_cast<double>(k + 1), s);
    cdf[k] = acc;
  }
  ntier::sim::Rng rng(seed);
  std::vector<std::uint64_t> keys(n);
  for (auto& key : keys) {
    const double u = rng.uniform01() * acc;
    key = static_cast<std::uint64_t>(
        std::lower_bound(cdf.begin(), cdf.end(), u) - cdf.begin());
    key = std::min(key, key_space - 1);
  }
  return keys;
}

// -- event heap -------------------------------------------------------------

struct HeapState {
  ntier::sim::Simulation* sim;
  const std::vector<SimTime>* delays;
  std::size_t next = 0;
};

/// A timer that re-arms itself on firing, like a client's think timer.
struct Rearm {
  HeapState* s;
  void operator()() const {
    const auto& d = *s->delays;
    s->sim->after(d[s->next++ % d.size()], Rearm{s});
  }
};

// -- PS CPU -----------------------------------------------------------------

struct CpuState {
  ntier::os::CpuResource* cpu;
  const std::vector<SimTime>* demands;
  std::size_t next = 0;
  std::uint64_t remaining = 0;
  std::uint64_t completed = 0;
};

/// Completion callback that keeps the CPU at constant depth until the
/// batch's job budget is spent.
struct Resubmit {
  CpuState* s;
  void operator()() const {
    ++s->completed;
    if (s->remaining == 0) return;
    --s->remaining;
    const auto& d = *s->demands;
    s->cpu->submit(d[s->next++ % d.size()], Resubmit{s});
  }
};

}  // namespace

Cost event_heap(std::size_t population, SimTime mean_delay,
                std::uint64_t seed) {
  constexpr double kEvents = 2e6;
  population = std::max<std::size_t>(population, 1);
  ntier::sim::Rng rng(seed);
  std::vector<SimTime> delays(1 << 16);
  for (auto& d : delays) d = rng.exponential_time(mean_delay);
  const SimTime horizon = SimTime::from_seconds(
      mean_delay.to_seconds() * kEvents / static_cast<double>(population));
  return measure([&] {
    ntier::sim::Simulation sim(seed);
    HeapState state{&sim, &delays};
    for (std::size_t i = 0; i < population; ++i)
      sim.at(delays[state.next++ % delays.size()], Rearm{&state});
    std::uint64_t allocs = 0;
    std::uint64_t fired = 0;
    const auto t0 = Clock::now();
    {
      alloc::Counted count(allocs);
      fired = sim.run_until(horizon);
    }
    return BatchResult{seconds_since(t0), std::max<std::uint64_t>(fired, 1),
                       allocs};
  });
}

Cost ps_cpu(int cores, std::size_t depth, double mean_demand_ms,
            std::uint64_t seed) {
  constexpr std::uint64_t kJobs = 400'000;
  depth = std::max<std::size_t>(depth, 1);
  ntier::sim::Rng rng(seed);
  std::vector<SimTime> demands(1 << 16);
  for (auto& d : demands)
    d = SimTime::from_millis(rng.lognormal_mean(mean_demand_ms, 0.3));
  return measure([&] {
    ntier::sim::Simulation sim(seed);
    ntier::os::CpuResource cpu(sim, cores, "driver/cpu");
    CpuState state{&cpu, &demands};
    for (std::size_t i = 0; i < depth; ++i)
      cpu.submit(demands[state.next++ % demands.size()], Resubmit{&state});
    state.remaining = kJobs;
    std::uint64_t allocs = 0;
    const auto t0 = Clock::now();
    {
      alloc::Counted count(allocs);
      sim.run();
    }
    return BatchResult{seconds_since(t0), state.completed, allocs};
  });
}

Cost kv_route(const ntier::kv::KvConfig& kv, std::uint64_t key_space,
              double zipf_s, std::uint64_t seed) {
  const auto keys = zipf_keys(key_space, zipf_s, 1 << 20, seed);
  ntier::sim::Simulation sim(seed);
  std::vector<std::unique_ptr<ntier::os::Node>> nodes;
  std::vector<std::unique_ptr<ntier::kv::KvReplica>> replicas;
  std::vector<ntier::kv::KvReplica*> ptrs;
  for (int i = 0; i < kv.replicas; ++i) {
    ntier::os::NodeConfig nc;
    nc.name = "kv" + std::to_string(i + 1);
    nc.pdflush.enabled = false;
    nodes.push_back(std::make_unique<ntier::os::Node>(sim, nc));
    replicas.push_back(
        std::make_unique<ntier::kv::KvReplica>(sim, *nodes.back(), i));
    ptrs.push_back(replicas.back().get());
  }
  const ntier::kv::KvTier tier(sim, ptrs, kv, SimTime::micros(100));
  std::uint64_t sink = 0;
  const Cost c = measure([&] {
    std::uint64_t allocs = 0;
    const auto t0 = Clock::now();
    {
      alloc::Counted count(allocs);
      for (const std::uint64_t key : keys) {
        const int shard = tier.shard_of(key);
        for (const int r : tier.shard_members(shard))
          if (tier.alive(r)) sink += static_cast<std::uint64_t>(r);
      }
    }
    return BatchResult{seconds_since(t0), keys.size(), allocs};
  });
  if (sink == 0) throw std::runtime_error("kv driver routed no key");
  return c;
}

Cost cache_ops(const ntier::cache::CacheConfig& cache, std::uint64_t key_space,
               double zipf_s, double rps, std::uint64_t seed) {
  const auto keys = zipf_keys(key_space, zipf_s, 1 << 21, seed);
  const SimTime gap = SimTime::from_seconds(1.0 / std::max(rps, 1.0));
  std::uint64_t hits = 0;
  const Cost c = measure([&] {
    ntier::cache::CacheStore store(cache.capacity_entries());
    SimTime now;
    std::uint64_t allocs = 0;
    const auto t0 = Clock::now();
    {
      alloc::Counted count(allocs);
      for (const std::uint64_t key : keys) {
        now = now + gap;
        if (store.lookup(key, now)) ++hits;
        else store.insert(key, now, cache.ttl);
      }
    }
    return BatchResult{seconds_since(t0), keys.size(), allocs};
  });
  if (hits == 0) throw std::runtime_error("cache driver never hit");
  return c;
}

double parse_ns_per_row(const ntier::workload::ArrivalTrace& trace) {
  std::ostringstream os;
  trace.save(os);
  const std::string text = os.str();
  std::vector<double> ns;
  for (int b = 0; b < kBatches; ++b) {
    const auto t0 = Clock::now();
    const auto parsed = ntier::workload::ArrivalTrace::parse(text, "perf");
    ns.push_back(seconds_since(t0) * 1e9 /
                 static_cast<double>(std::max<std::size_t>(parsed.size(), 1)));
    if (b == 0) {
      std::ostringstream again;
      parsed.save(again);
      if (parsed.size() != trace.size() || again.str() != text)
        throw std::runtime_error(
            "trace save -> parse -> save is not identical");
    }
  }
  std::sort(ns.begin(), ns.end());
  return ns[ns.size() / 2];
}

}  // namespace perf::drivers
