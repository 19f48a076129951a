#pragma once

#include <cstdint>
#include <cstdio>
#include <fstream>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include "experiment/experiment.h"
#include "lb/worker_index.h"
#include "obs/trace.h"

namespace ntier::experiment::testing {

/// A fast variant of the paper's 4A/4T/1M setup: same offered load
/// (~10 k req/s) via the scaled client population, short duration.
inline ExperimentConfig quick_config(lb::PolicyKind policy,
                                     lb::MechanismKind mech,
                                     bool millibottlenecks,
                                     sim::SimTime duration = sim::SimTime::seconds(15)) {
  ExperimentConfig c = ExperimentConfig::scaled(0.1);
  c.policy = policy;
  c.mechanism = mech;
  c.tomcat_millibottlenecks = millibottlenecks;
  c.duration = duration;
  c.warmup = sim::SimTime::seconds(2);
  return c;
}

inline std::unique_ptr<Experiment> run(ExperimentConfig c) {
  auto e = std::make_unique<Experiment>(std::move(c));
  e->run();
  return e;
}

/// FNV-1a 64 of `bytes` as 16 hex digits, the digest format of the
/// tests/golden/*.fnv files.
inline std::string fnv1a_hex(std::string_view bytes) {
  std::uint64_t h = 14695981039346656037ull;
  for (unsigned char c : bytes) {
    h ^= c;
    h *= 1099511628211ull;
  }
  char out[17];
  std::snprintf(out, sizeof out, "%016llx", static_cast<unsigned long long>(h));
  return out;
}

/// The "name digest" rows of a golden file; blank and '#' lines skipped.
inline std::map<std::string, std::string> golden_digests(const std::string& path) {
  std::ifstream in(path);
  std::map<std::string, std::string> out;
  for (std::string line; std::getline(in, line);) {
    if (line.empty() || line[0] == '#') continue;
    std::istringstream row(line);
    std::string name, digest;
    row >> name >> digest;
    out[name] = digest;
  }
  return out;
}

}  // namespace ntier::experiment::testing

namespace ntier::lb::testing {

/// The EligibleSet a policy would see with exactly `members` eligible.
inline WorkerIndex set_of(const std::vector<WorkerRecord>& records,
                          const std::vector<int>& members) {
  WorkerIndex set(records);
  for (std::size_t i = 0; i < records.size(); ++i)
    set.set(static_cast<int>(i), false);
  for (int m : members) set.set(m, true);
  return set;
}

/// Every worker eligible.
inline WorkerIndex all_of(const std::vector<WorkerRecord>& records) {
  WorkerIndex set(records);
  for (std::size_t i = 0; i < records.size(); ++i)
    set.set(static_cast<int>(i), true);
  return set;
}

}  // namespace ntier::lb::testing

namespace ntier::obs::testing {

/// A hand-written trace event at `t_ms`.
inline TraceEvent ev(std::int64_t t_ms, EventKind kind, Tier tier, int node,
                     int worker = -1, std::uint64_t req = 0,
                     double value = 0.0, std::int32_t aux = 0) {
  TraceEvent e;
  e.at = sim::SimTime::millis(t_ms);
  e.kind = kind;
  e.tier = tier;
  e.node = static_cast<std::int16_t>(node);
  e.worker = worker;
  e.request = req;
  e.value = value;
  e.aux = aux;
  return e;
}

}  // namespace ntier::obs::testing
