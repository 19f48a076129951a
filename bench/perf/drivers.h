#pragma once

// Layer drivers: each times a batch of one module's public calls in its own
// loop, with the batch shaped from the workload under test (heap population,
// PS depth, key skew, cache size, trace rows). Only call shapes that survive
// planned refactors are used: lambdas into Simulation::at and
// CpuResource::submit, and the KV/cache/trace public APIs — never request
// handles, balancer internals or the trace collector.

#include <cstdint>
#include <string>

#include "cache/config.h"
#include "kv/config.h"
#include "sim/time.h"
#include "workload/rubbos.h"
#include "workload/trace.h"
#include "workload/trace_gen.h"

namespace perf::drivers {

struct Cost {
  double ns_per_op = 0;
  double allocs_per_op = 0;
};

/// Event kernel: `population` self-rescheduling timers with exponential
/// delays of mean `mean_delay`; cost per fired event.
Cost event_heap(std::size_t population, ntier::sim::SimTime mean_delay,
                std::uint64_t seed);

/// Processor-sharing CPU with `cores` cores held at `depth` runnable jobs
/// (each completion submits a replacement); cost per completed job.
Cost ps_cpu(int cores, std::size_t depth, double mean_demand_ms,
            std::uint64_t seed);

/// KV routing: shard lookup plus a walk of the shard's live preference
/// list, for Zipf keys; cost per routed key.
Cost kv_route(const ntier::kv::KvConfig& kv, std::uint64_t key_space,
              double zipf_s, std::uint64_t seed);

/// Look-aside cache: lookup, and insert on miss, for Zipf keys arriving at
/// `rps`; cost per operation.
Cost cache_ops(const ntier::cache::CacheConfig& cache, std::uint64_t key_space,
               double zipf_s, double rps, std::uint64_t seed);

/// Trace rows through save -> parse; ns per parsed row. Fails (throws) when
/// the parsed trace does not re-save byte-identically.
double parse_ns_per_row(const ntier::workload::ArrivalTrace& trace);

}  // namespace perf::drivers
