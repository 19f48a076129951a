#include "millib/fault_plan.h"

#include <algorithm>
#include <sstream>
#include <stdexcept>

#include "sim/rng.h"

namespace ntier::millib {

namespace {

/// Severity range of randomized faults.
constexpr double kMinSeverity = 0.6;
constexpr double kMaxSeverity = 1.0;

}  // namespace

std::string to_string(FaultKind k) {
  switch (k) {
    case FaultKind::kCapacityStall: return "capacity_stall";
    case FaultKind::kCorrelatedStall: return "correlated_stall";
    case FaultKind::kCrash: return "crash";
    case FaultKind::kLinkFault: return "link_fault";
    case FaultKind::kPoolLeak: return "pool_leak";
    case FaultKind::kDiskDegrade: return "disk_degrade";
    case FaultKind::kReplicaCrash: return "replica_crash";
    case FaultKind::kShardMigration: return "shard_migration";
    case FaultKind::kInvalidationStorm: return "invalidation_storm";
    case FaultKind::kGrayDataPath: return "gray_data_path";
    case FaultKind::kGrayLink: return "gray_link";
    case FaultKind::kGraySlowReplica: return "gray_slow_replica";
  }
  return "?";
}

std::string FaultSpec::to_string() const {
  std::ostringstream os;
  os << millib::to_string(kind) << " worker=" << worker << " start="
     << start.to_string() << " duration=" << duration.to_string();
  switch (kind) {
    case FaultKind::kCapacityStall:
    case FaultKind::kCorrelatedStall:
    case FaultKind::kDiskDegrade:
      os << " severity=" << severity;
      break;
    case FaultKind::kLinkFault:
      os << " extra_latency=" << extra_latency.to_string()
         << " loss=" << loss_probability;
      break;
    case FaultKind::kPoolLeak:
      os << " leak_slots=" << leak_slots;
      break;
    case FaultKind::kShardMigration:
      os << " severity=" << severity;  // migration copy intensity
      break;
    case FaultKind::kInvalidationStorm:
      os << " severity=" << severity;  // hot-key sweep width multiplier
      break;
    case FaultKind::kGrayDataPath:
    case FaultKind::kGraySlowReplica:
      os << " severity=" << severity;  // slowdown = 1/(1-severity)
      break;
    case FaultKind::kGrayLink:
      os << " extra_latency=" << extra_latency.to_string()
         << " loss=" << loss_probability;
      break;
    case FaultKind::kCrash:
    case FaultKind::kReplicaCrash:
      break;
  }
  return os.str();
}

FaultPlan& FaultPlan::merge(const FaultPlan& other) {
  specs.insert(specs.end(), other.specs.begin(), other.specs.end());
  std::stable_sort(specs.begin(), specs.end(),
                   [](const FaultSpec& a, const FaultSpec& b) {
                     return a.start < b.start;
                   });
  return *this;
}

FaultPlan FaultPlan::randomized(std::uint64_t seed,
                                const FaultPlanConfig& config,
                                int num_workers) {
  if (num_workers <= 0)
    throw std::invalid_argument("FaultPlan: num_workers must be positive");
  const std::vector<double> weights(kFaultKindWeights.begin(),
                                    kFaultKindWeights.end());
  sim::Rng rng(seed);
  FaultPlan plan;
  sim::SimTime t = config.initial_offset;
  while (t < config.horizon && plan.specs.size() < config.max_faults) {
    FaultSpec spec;
    spec.kind = static_cast<FaultKind>(rng.weighted_index(weights));
    spec.start = t;
    spec.duration = sim::SimTime::from_seconds(
        rng.uniform(kMinFaultDuration.to_seconds(),
                    config.max_duration.to_seconds()));
    spec.severity = rng.uniform(kMinSeverity, kMaxSeverity);
    spec.worker = static_cast<int>(
        rng.uniform_int(0, static_cast<std::int64_t>(num_workers) - 1));
    switch (spec.kind) {
      case FaultKind::kCorrelatedStall:
      case FaultKind::kLinkFault:
        spec.worker = -1;
        break;
      default:
        break;
    }
    if (spec.kind == FaultKind::kLinkFault ||
        spec.kind == FaultKind::kGrayLink) {
      spec.extra_latency = sim::SimTime::from_seconds(
          rng.uniform(0.0, kMaxExtraLatency.to_seconds()));
      spec.loss_probability = rng.uniform(0.05, kMaxLossProbability);
    }
    if (spec.kind == FaultKind::kPoolLeak) spec.leak_slots = kLeakSlots;
    plan.specs.push_back(spec);
    t += rng.exponential_time(config.mean_gap);
  }
  return plan;
}

FaultPlan FaultPlan::single(FaultSpec spec) {
  FaultPlan plan;
  plan.specs.push_back(spec);
  return plan;
}

std::string FaultPlan::trace_string() const {
  std::ostringstream os;
  for (const auto& spec : specs) os << spec.to_string() << '\n';
  return os.str();
}

}  // namespace ntier::millib
