#pragma once

#include <optional>
#include <string>
#include <vector>

#include "experiment/config.h"
#include "obs/trace_io.h"
#include "workload/trace_gen.h"

namespace ntier::cli {

/// Parsed command line of the `ntier_run` tool.
struct CliOptions {
  experiment::ExperimentConfig config;
  std::string json_path;   // write a RunSummary JSON here when non-empty
  std::string csv_dir;     // dump tier queue series here when non-empty
  std::string record_trace_path;  // save the arrival trace of the run
  std::string replay_trace_path;  // drive the run from a saved trace
  std::optional<workload::TraceGenSpec> trace_gen;  // synthesize a trace
  std::string trace_out_path;     // write the generated trace here and exit
  sim::SimTime replay_timeout;    // open-loop client patience (0 = forever)
  double replay_scale = 0;        // time-scale factor for the replay (0 = 1x)
  std::string trace_path;  // write the cross-tier event trace here
  obs::TraceFormat trace_format = obs::TraceFormat::kJsonl;
  bool chaos = false;             // inject a seeded randomized fault schedule
  std::uint64_t chaos_seed = 1;
  bool resilience = false;        // prober + breaker + budgeted retries
  std::string gray_fault;         // "" | data_path | link | replica
  int sweep_seeds = 0;     // > 0: run that many seed-forked replicas
  int jobs = 1;            // sweep worker threads (output is jobs-invariant)
  bool quiet = false;      // suppress the human-readable report
  bool help = false;
};

/// Result of parsing: options on success, an error message otherwise.
struct ParseResult {
  std::optional<CliOptions> options;
  std::string error;
  bool ok() const { return options.has_value(); }
};

/// Parse `ntier_run` flags into an ExperimentConfig. Unknown flags and
/// malformed values produce an error (never a partial config). See
/// usage_text() for the accepted flags.
ParseResult parse_cli(const std::vector<std::string>& args);
ParseResult parse_cli(int argc, char** argv);

std::string usage_text();

/// Run the configured experiment and emit the requested outputs. Returns a
/// process exit code.
int run_cli(const CliOptions& options);

}  // namespace ntier::cli
