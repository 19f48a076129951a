#pragma once

#include <cstdint>
#include <vector>

#include "lb/policy.h"
#include "probe/probe_pool.h"

namespace ntier::lb {

/// Base for the probe-driven policy family (kPowerOfD, kPrequal).
///
/// Both policies keep current_load-style lb_value bookkeeping (+1 per
/// assigned request, -1 per response) so that the base
/// class's default lowest-lb_value pick IS the documented fallback: when the
/// probe pool is unbound, empty, or holds only stale results, the decision
/// degrades to exactly the paper's current_load remedy instead of anything
/// worse. `fallback_picks()` counts how often that happened.
class ProbeAwarePolicy : public LbPolicy {
 public:
  /// Bind the balancer's probe pool (null unbinds → permanent fallback).
  bool bind(probe::ProbePool* pool) override {
    pool_ = pool;
    return true;
  }
  probe::ProbePool* pool() const { return pool_; }

  /// Decisions driven by probe-fresh state (the policy's probe rule chose).
  std::uint64_t probe_picks() const { return probe_picks_; }
  /// Decisions ranked by current_load where a probed RIF broke the tie that
  /// mod_jk's first-on-tie scan would have given to the lowest worker index.
  std::uint64_t tiebreak_picks() const { return tiebreak_picks_; }
  /// Decisions that fell back to current_load ranking.
  std::uint64_t fallback_picks() const { return fallback_picks_; }

  void on_assigned(WorkerRecord& rec, const proto::Request&) override {
    rec.lb_value += kLbMult;
  }
  void on_completed(WorkerRecord& rec, const proto::Request&) override {
    if (rec.lb_value >= kLbMult)
      rec.lb_value -= kLbMult;
    else
      rec.lb_value = 0;
  }

 protected:
  /// No usable probe state: count it and degrade to the base class's
  /// lowest-lb_value pick, which our bookkeeping makes current_load ranking.
  int fallback(const std::vector<WorkerRecord>& records,
               const EligibleSet& eligible, sim::Rng& rng) {
    ++fallback_picks_;
    return LbPolicy::pick(records, eligible, rng);
  }

  probe::ProbePool* pool_ = nullptr;
  std::uint64_t probe_picks_ = 0;
  std::uint64_t tiebreak_picks_ = 0;
  std::uint64_t fallback_picks_ = 0;
};

/// JSQ(d): sample d distinct eligible workers, restrict to those with a
/// fresh probe, pick the lowest probed requests-in-flight (ties broken by
/// lower worker index, deterministically). No sampled worker fresh →
/// current_load fallback over all eligible.
class PowerOfDPolicy final : public ProbeAwarePolicy {
 public:
  explicit PowerOfDPolicy(int d = 3) : d_(d < 1 ? 1 : d) {}
  PolicyKind kind() const override { return PolicyKind::kPowerOfD; }
  int pick(const std::vector<WorkerRecord>& records,
           const EligibleSet& eligible, sim::Rng& rng) override;

 private:
  int d_;
  std::vector<int> sample_;  // pick() scratch, reused across calls
};

/// Prequal's hot/cold lexicographic rule, gated on an anomaly signal.
///
/// Among eligible workers with fresh probes, classify as hot those whose
/// drift-corrected RIF exceeds the kHotQuantile quantile of the pooled RIFs by
/// the kHotFactor safety margin (the millibottleneck signature). When the
/// hot set is non-empty, apply the lexicographic rule: pick the cold worker
/// with the lowest estimated latency (all hot → lowest RIF).
///
/// When nobody is hot the probes carry no congestion signal the balancer's
/// own exact bookkeeping lacks, so ranking is current_load — with the probed
/// global RIF breaking current_load's ties instead of mod_jk's first-index
/// scan. Tie-break consultations do not spend reuse budget (the budget
/// exists to stop herding on probe-driven picks). Empty or stale fresh set
/// → plain current_load fallback.
class PrequalPolicy final : public ProbeAwarePolicy {
 public:
  PolicyKind kind() const override { return PolicyKind::kPrequal; }
  int pick(const std::vector<WorkerRecord>& records,
           const EligibleSet& eligible, sim::Rng& rng) override;

 private:
  // pick() scratch, cleared per call so a decision allocates nothing.
  std::vector<probe::ProbeResult> fresh_;
  std::vector<double> rifs_;
};

}  // namespace ntier::lb
