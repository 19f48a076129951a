#pragma once

#include <memory>
#include <vector>

#include "experiment/experiment.h"
#include "lb/worker_index.h"

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
