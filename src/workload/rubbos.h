#pragma once

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "proto/request.h"
#include "sim/rng.h"
#include "sim/time.h"

namespace ntier::workload {

/// One of the 24 RUBBoS web interactions (bulletin-board operations modelled
/// after Slashdot). Demand means are calibrated so the simulated testbed
/// matches the paper's operating point: ≈3 ms baseline response time,
/// ≈10 k interactions/s at 70 000 clients, every server below ~45 % CPU.
struct InteractionType {
  std::string name;
  double weight_browse = 0;   // relative frequency, browse-only mix
  double weight_rw = 0;       // relative frequency, read/write mix
  double apache_demand_ms = 0.45;   // front-end CPU per request
  double tomcat_demand_ms = 0.55;   // servlet CPU per request
  int db_queries = 1;               // MySQL round trips
  double mysql_miss_demand_ms = 0.5;  // per query on a query-cache miss
  std::uint32_t request_bytes = 500;
  std::uint32_t response_bytes = 8000;
  std::uint32_t log_bytes = 1200;   // access+servlet+localhost log volume
  /// Brownout priority class: 0 = high (writes, logins, moderation — work a
  /// user would lose), 1 = normal (views, browsing), 2 = low (searches and
  /// archive pages — easy to retry, shed first under overload).
  std::uint8_t priority = 1;
  /// How many of the interaction's DB round trips commit data (the last
  /// db_writes trips — reads gather, the write commits). The KV tier routes
  /// them through the write quorum; MySQL treats every trip the same.
  std::uint8_t db_writes = 0;
};

enum class Mix { kBrowseOnly, kReadWrite };

std::string to_string(Mix m);

/// How requests get their brownout priority class.
enum class PriorityMix {
  kUniform,  // everything normal priority (the seed behaviour)
  kRubbos,   // per-interaction classes from the table above
};

std::string to_string(PriorityMix p);

/// MySQL demand of a query the query cache answers (before demand_scale).
inline constexpr double kMySqlHitDemandMs = 0.02;

/// Workload-level tunables.
struct WorkloadParams {
  Mix mix = Mix::kReadWrite;
  /// MySQL query-cache hit probability (a hit costs kMySqlHitDemandMs).
  double query_cache_hit = 0.85;
  /// Global demand scaling (ablation knob).
  double demand_scale = 1.0;
  /// Brownout priority stamping (consumed by the overload-control layer;
  /// harmless when no limiter is active).
  PriorityMix priority_mix = PriorityMix::kUniform;
  /// Data-key popularity for the sharded KV tier: each request touches one
  /// key drawn Zipf(zipf_s) from [0, key_space). Zero keys disables the
  /// draw entirely (MySQL mode — keeps the RNG stream identical to before
  /// the KV tier existed). Rank 0 is the hottest key.
  std::uint64_t key_space = 0;
  double zipf_s = 0.8;
};

/// Generator of RUBBoS interactions: owns the 24-entry interaction table and
/// draws fully-specified requests (all demands pre-sampled, so a request is
/// self-contained and the run replayable).
class RubbosWorkload {
 public:
  explicit RubbosWorkload(WorkloadParams params = {});

  const std::vector<InteractionType>& interactions() const { return table_; }
  const WorkloadParams& params() const { return params_; }

  /// Number of interaction types (24 for RUBBoS).
  std::size_t num_interactions() const { return table_.size(); }

  /// Draw the next interaction from the mix and materialise it as a request
  /// with sampled demands, made in `pool`.
  proto::RequestRef make_request(proto::RequestPool& pool, sim::Rng& rng,
                                 std::uint64_t id, std::uint32_t client) const;

  /// The mix draw by itself: the next interaction index.
  std::size_t next_interaction(sim::Rng& rng) const;

  /// Materialise a request of a *given* interaction type (trace replay):
  /// demands are sampled, the type is forced.
  proto::RequestRef materialize(proto::RequestPool& pool, sim::Rng& rng,
                                std::uint64_t id, std::uint32_t client,
                                std::size_t interaction) const;

  /// Mean demands of the active mix (used by capacity-planning tests).
  double mean_tomcat_demand_ms() const;
  double mean_apache_demand_ms() const;
  double mean_log_bytes() const;

 private:
  const std::vector<double>& active_weights() const {
    return params_.mix == Mix::kBrowseOnly ? weights_browse_ : weights_rw_;
  }

  WorkloadParams params_;
  std::vector<InteractionType> table_;
  std::vector<double> weights_browse_;
  std::vector<double> weights_rw_;
  /// Zipf CDF over key ranks (empty when key_space == 0); a key draw is one
  /// uniform + binary search, not the O(n) scan of Rng::zipf.
  std::vector<double> zipf_cdf_;
};

}  // namespace ntier::workload
