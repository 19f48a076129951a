#include "lb/policy.h"

#include <stdexcept>

#include "lb/probe_policy.h"

namespace ntier::lb {

std::string to_string(PolicyKind k) {
  switch (k) {
    case PolicyKind::kTotalRequest: return "total_request";
    case PolicyKind::kTotalTraffic: return "total_traffic";
    case PolicyKind::kCurrentLoad: return "current_load";
    case PolicyKind::kSessions: return "sessions";
    case PolicyKind::kRoundRobin: return "round_robin";
    case PolicyKind::kRandom: return "random";
    case PolicyKind::kTwoChoices: return "two_choices";
    case PolicyKind::kPowerOfD: return "power_of_d";
    case PolicyKind::kPrequal: return "prequal";
    case PolicyKind::kSourceHash: return "source_hash";
  }
  return "?";
}

std::optional<PolicyKind> policy_from_string(const std::string& name) {
  for (int k = 0; k <= static_cast<int>(PolicyKind::kSourceHash); ++k) {
    const auto kind = static_cast<PolicyKind>(k);
    if (name == to_string(kind)) return kind;
  }
  if (name == "po2d") return PolicyKind::kPowerOfD;
  return std::nullopt;
}

bool policy_uses_probes(PolicyKind k) {
  return k == PolicyKind::kPowerOfD || k == PolicyKind::kPrequal;
}

bool runs_probe_pool(bool requested, PolicyKind k) {
  return requested || policy_uses_probes(k);
}

int LbPolicy::pick(const std::vector<WorkerRecord>&,
                   const EligibleSet& eligible, sim::Rng&) {
  return eligible.lowest_lb_value();
}

int RoundRobinPolicy::pick(const std::vector<WorkerRecord>&,
                           const EligibleSet& eligible, sim::Rng&) {
  if (eligible.empty()) return -1;
  return eligible.nth(next_++ % eligible.size());
}

int RandomPolicy::pick(const std::vector<WorkerRecord>&,
                       const EligibleSet& eligible, sim::Rng& rng) {
  if (eligible.empty()) return -1;
  return eligible.nth(static_cast<std::size_t>(
      rng.uniform_int(0, static_cast<std::int64_t>(eligible.size()) - 1)));
}

int TwoChoicesPolicy::pick(const std::vector<WorkerRecord>& records,
                           const EligibleSet& eligible, sim::Rng& rng) {
  if (eligible.empty()) return -1;
  if (eligible.size() == 1) return eligible.nth(0);
  const auto n = static_cast<std::int64_t>(eligible.size());
  const int a = eligible.nth(static_cast<std::size_t>(rng.uniform_int(0, n - 1)));
  int b = a;
  while (b == a)
    b = eligible.nth(static_cast<std::size_t>(rng.uniform_int(0, n - 1)));
  const auto& ra = records[static_cast<std::size_t>(a)];
  const auto& rb = records[static_cast<std::size_t>(b)];
  return ra.outstanding <= rb.outstanding ? a : b;
}

int SourceHashPolicy::pick_for(const std::vector<WorkerRecord>& records,
                               const EligibleSet& eligible, sim::Rng&,
                               const proto::Request& req) {
  if (eligible.empty()) return -1;
  // Hash the client over ALL workers first so affinity is stable regardless
  // of who happens to be eligible this instant...
  const std::uint64_t h = sim::Rng::mix64(static_cast<std::uint64_t>(req.client) + 1);
  const int preferred = static_cast<int>(h % records.size());
  if (eligible.contains(preferred)) return preferred;
  // ...and only rehash over the eligible set when the preferred worker is
  // sidelined (breaker open, being retried, etc.).
  return eligible.nth(static_cast<std::size_t>((h >> 17) % eligible.size()));
}

std::unique_ptr<LbPolicy> make_policy(PolicyKind kind) {
  switch (kind) {
    case PolicyKind::kTotalRequest: return std::make_unique<TotalRequestPolicy>();
    case PolicyKind::kTotalTraffic: return std::make_unique<TotalTrafficPolicy>();
    case PolicyKind::kCurrentLoad: return std::make_unique<CurrentLoadPolicy>();
    case PolicyKind::kSessions: return std::make_unique<SessionsPolicy>();
    case PolicyKind::kRoundRobin: return std::make_unique<RoundRobinPolicy>();
    case PolicyKind::kRandom: return std::make_unique<RandomPolicy>();
    case PolicyKind::kTwoChoices: return std::make_unique<TwoChoicesPolicy>();
    case PolicyKind::kPowerOfD: return std::make_unique<PowerOfDPolicy>();
    case PolicyKind::kPrequal: return std::make_unique<PrequalPolicy>();
    case PolicyKind::kSourceHash: return std::make_unique<SourceHashPolicy>();
  }
  throw std::invalid_argument("make_policy: unknown kind");
}

}  // namespace ntier::lb
