#pragma once

// The ledger's four named workloads. Each stresses a different src/ module
// (see README.md for the rationale and the layer -> end-to-end predictions);
// every input is derived from the seed, so the same seed gives the same run.

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "experiment/config.h"
#include "workload/trace_gen.h"

namespace perf {

struct Workload {
  std::string name;
  std::string why;
};

/// The workloads in ledger order.
const std::vector<Workload>& workloads();
bool known_workload(const std::string& name);

/// Configuration of one rep. `duration_scale` shrinks the simulated horizon
/// (and warm-up) for --check; 1.0 is the ledger definition. Replay workloads
/// leave `replay_trace` empty: the trace is generated inside the timed
/// set-up from trace_spec().
ntier::experiment::ExperimentConfig make_config(const std::string& name,
                                                std::uint64_t seed,
                                                double duration_scale);

/// The generated day a replay workload replays; nullopt for closed loops.
std::optional<ntier::workload::TraceGenSpec> trace_spec(
    const std::string& name, std::uint64_t seed, double duration_scale);

}  // namespace perf
