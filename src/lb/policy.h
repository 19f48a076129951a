#pragma once

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "lb/worker_index.h"
#include "lb/worker_record.h"
#include "proto/request.h"
#include "sim/rng.h"

namespace ntier::probe {
class ProbePool;
}  // namespace ntier::probe

namespace ntier::lb {

/// Which load-balancing policy a balancer runs.
enum class PolicyKind {
  kTotalRequest,  // mod_jk default: fewest accumulated requests (Algorithm 2)
  kTotalTraffic,  // fewest accumulated bytes exchanged (Algorithm 3)
  kCurrentLoad,   // the paper's remedy: fewest outstanding now (Algorithm 4)
  kSessions,      // mod_jk method=Sessions: fewest sessions created
  kRoundRobin,    // classic baseline
  kRandom,        // classic baseline
  kTwoChoices,    // power-of-two-choices on outstanding (extension baseline)
  kPowerOfD,      // JSQ(d) over probe-fresh requests-in-flight (src/probe)
  kPrequal,       // Prequal hot/cold rule over probe-fresh RIF + latency
  kSourceHash,    // client-affinity hash: same client -> same worker
};

std::string to_string(PolicyKind k);

/// Inverse of to_string for every PolicyKind, plus the "po2d" alias for
/// kPowerOfD. Returns nullopt for unknown names; the single parse point used
/// by the CLI and benches.
std::optional<PolicyKind> policy_from_string(const std::string& name);

/// Probe-aware policies (kPowerOfD, kPrequal) need a probe::ProbePool bound
/// after construction; everything else ignores probing entirely.
bool policy_uses_probes(PolicyKind k);
/// Whether a balancer running `k` gets a probe pool: when one was asked for
/// (`requested`), and always for a probe-aware policy, which without a pool
/// would silently run as current_load.
bool runs_probe_pool(bool requested, PolicyKind k);

/// Upper level of mod_jk's two-level scheduler: maintains each worker's
/// lb_value and (for the non-value-based baselines) chooses the candidate.
///
/// Hook placement follows the paper's pseudo-code exactly, because it is
/// load-bearing: `total_request` bumps lb_value only *after* an endpoint is
/// acquired, and `total_traffic` only after the *response* arrives — so a
/// worker stuck in a millibottleneck keeps the minimum lb_value and attracts
/// every new request (§V-A).
class LbPolicy {
 public:
  virtual ~LbPolicy() = default;

  virtual PolicyKind kind() const = 0;
  std::string name() const { return to_string(kind()); }

  /// Choose among `eligible` (indices into `records`, all Available and not
  /// yet attempted for this request). Default: lowest lb_value, first on
  /// ties (mod_jk scans workers in order with a strict comparison), read
  /// from the set's tournament tree.
  virtual int pick(const std::vector<WorkerRecord>& records,
                   const EligibleSet& eligible, sim::Rng& rng);

  /// Request-aware selection; the balancer calls this one. Defaults to the
  /// request-blind pick() so only affinity policies (source_hash) need the
  /// request at all.
  virtual int pick_for(const std::vector<WorkerRecord>& records,
                       const EligibleSet& eligible, sim::Rng& rng,
                       const proto::Request& req) {
    (void)req;
    return pick(records, eligible, rng);
  }

  /// Endpoint acquired; request about to be sent (Algorithms 2 & 4).
  virtual void on_assigned(WorkerRecord& rec, const proto::Request& req) = 0;

  /// Response received (Algorithms 3 & 4).
  virtual void on_completed(WorkerRecord& rec, const proto::Request& req) = 0;

  /// Bind a probe pool; false for a policy that does not read probes.
  virtual bool bind(probe::ProbePool* pool) {
    (void)pool;
    return false;
  }

 protected:
  /// mod_jk's lb_value granularity; kept so traces read like the paper's.
  static constexpr double kLbMult = 1.0;
};

/// Factory for all built-in policies.
std::unique_ptr<LbPolicy> make_policy(PolicyKind kind);

// --------------------------------------------------------------------------
// Concrete policies (exposed for direct construction in tests).

/// Algorithm 2: rank by accumulated number of requests served.
class TotalRequestPolicy final : public LbPolicy {
 public:
  PolicyKind kind() const override { return PolicyKind::kTotalRequest; }
  void on_assigned(WorkerRecord& rec, const proto::Request&) override {
    rec.lb_value += kLbMult;
  }
  void on_completed(WorkerRecord&, const proto::Request&) override {}
};

/// Algorithm 3: rank by accumulated message bytes; updated on completion.
class TotalTrafficPolicy final : public LbPolicy {
 public:
  PolicyKind kind() const override { return PolicyKind::kTotalTraffic; }
  void on_assigned(WorkerRecord&, const proto::Request&) override {}
  void on_completed(WorkerRecord& rec, const proto::Request& req) override {
    rec.lb_value +=
        (static_cast<double>(req.request_bytes) + req.response_bytes) * kLbMult;
  }
};

/// Algorithm 4 (the paper's policy remedy): lb_value tracks the number of
/// requests currently assigned; +1 on send, -1 (floored at 0) on response.
class CurrentLoadPolicy final : public LbPolicy {
 public:
  PolicyKind kind() const override { return PolicyKind::kCurrentLoad; }
  void on_assigned(WorkerRecord& rec, const proto::Request&) override {
    rec.lb_value += kLbMult;
  }
  void on_completed(WorkerRecord& rec, const proto::Request&) override {
    if (rec.lb_value >= kLbMult)
      rec.lb_value -= kLbMult;
    else
      rec.lb_value = 0;
  }
};

/// mod_jk method=Sessions: rank by the number of *sessions* opened on each
/// worker — lb_value advances only for requests that do not yet carry a
/// session route. Pair with sticky sessions. Shares the cumulative-counter
/// pathology of total_request: a stalled worker's session count freezes.
class SessionsPolicy final : public LbPolicy {
 public:
  PolicyKind kind() const override { return PolicyKind::kSessions; }
  void on_assigned(WorkerRecord& rec, const proto::Request& req) override {
    if (req.session_route < 0) rec.lb_value += kLbMult;
  }
  void on_completed(WorkerRecord&, const proto::Request&) override {}
};

/// Baseline: cycle through eligible workers regardless of lb_value.
class RoundRobinPolicy final : public LbPolicy {
 public:
  PolicyKind kind() const override { return PolicyKind::kRoundRobin; }
  int pick(const std::vector<WorkerRecord>& records,
           const EligibleSet& eligible, sim::Rng& rng) override;
  void on_assigned(WorkerRecord&, const proto::Request&) override {}
  void on_completed(WorkerRecord&, const proto::Request&) override {}

 private:
  std::size_t next_ = 0;
};

/// Baseline: uniformly random among eligible workers.
class RandomPolicy final : public LbPolicy {
 public:
  PolicyKind kind() const override { return PolicyKind::kRandom; }
  int pick(const std::vector<WorkerRecord>& records,
           const EligibleSet& eligible, sim::Rng& rng) override;
  void on_assigned(WorkerRecord&, const proto::Request&) override {}
  void on_completed(WorkerRecord&, const proto::Request&) override {}
};

/// Extension baseline: sample two eligible workers, pick the one with fewer
/// outstanding requests (Mitzenmacher's power of two choices). Shares
/// current_load's adaptivity with O(1) state inspection.
class TwoChoicesPolicy final : public LbPolicy {
 public:
  PolicyKind kind() const override { return PolicyKind::kTwoChoices; }
  int pick(const std::vector<WorkerRecord>& records,
           const EligibleSet& eligible, sim::Rng& rng) override;
  void on_assigned(WorkerRecord&, const proto::Request&) override {}
  void on_completed(WorkerRecord&, const proto::Request&) override {}
};

/// Affinity baseline: hash the originating client onto a worker, so the same
/// client always lands on the same backend (HAProxy `balance source`). The
/// KV hot-shard benchmark includes it to show that even perfect affinity
/// cannot dodge a *key-level* bottleneck — every server still funnels the
/// hot key into the same shard quorum. Falls back to a hash over the
/// eligible set when the preferred worker is sidelined.
class SourceHashPolicy final : public LbPolicy {
 public:
  PolicyKind kind() const override { return PolicyKind::kSourceHash; }
  int pick_for(const std::vector<WorkerRecord>& records,
               const EligibleSet& eligible, sim::Rng& rng,
               const proto::Request& req) override;
  void on_assigned(WorkerRecord&, const proto::Request&) override {}
  void on_completed(WorkerRecord&, const proto::Request&) override {}
};

}  // namespace ntier::lb
