#include "kv/replica.h"

#include <algorithm>

namespace ntier::kv {

namespace {

/// Dirty bytes per applied write (commit log), feeding the node's page cache
/// so pdflush-driven millibottlenecks reach the data tier.
constexpr std::uint32_t kLogBytesPerWrite = 800;

}  // namespace

KvReplica::KvReplica(sim::Simulation& simu, os::Node& node, int id,
                     std::size_t hint_capacity)
    : sim_(simu), node_(node), id_(id), hint_capacity_(hint_capacity) {}

void KvReplica::execute(sim::SimTime demand, sim::Callback<void()> done) {
  ++resident_;
  if (queue_series_) queue_series_->set(sim_.now(), resident_);
  if (executing_ < kReplicaMaxConnections) {
    start(demand, std::move(done));
  } else {
    waiting_.emplace_back(demand, std::move(done));
  }
}

void KvReplica::set_slow(double severity) {
  severity = std::clamp(severity, 0.0, 0.99);
  slow_factor_ = 1.0 / (1.0 - severity);
}

void KvReplica::start(sim::SimTime demand, sim::Callback<void()> done) {
  ++executing_;
  if (slow()) {
    demand = sim::SimTime::from_seconds(demand.to_seconds() * slow_factor_);
    ++slow_ops_;
  }
  node_.cpu().submit(demand, [this, done = std::move(done)] {
    on_op_done();
    if (done) done();
  });
}

void KvReplica::on_op_done() {
  --executing_;
  --resident_;
  ++served_;
  if (queue_series_) queue_series_->set(sim_.now(), resident_);
  if (!waiting_.empty() && executing_ < kReplicaMaxConnections) {
    auto [demand, done] = std::move(waiting_.front());
    waiting_.pop_front();
    start(demand, std::move(done));
  }
}

std::uint64_t KvReplica::version_of(std::uint64_t key) const {
  const auto it = versions_.find(key);
  return it == versions_.end() ? 0 : it->second;
}

bool KvReplica::apply_write(std::uint64_t key, std::uint64_t version) {
  auto& stored = versions_[key];
  if (version <= stored) return false;
  stored = version;
  ++writes_applied_;
  node_.page_cache().write_dirty(kLogBytesPerWrite);
  return true;
}

void KvReplica::dirty_bytes(std::uint32_t bytes) {
  if (bytes > 0) node_.page_cache().write_dirty(bytes);
}

bool KvReplica::store_hint(const Hint& h) {
  if (hints_.size() >= hint_capacity_) return false;
  hints_.push_back(h);
  return true;
}

std::vector<Hint> KvReplica::take_hints_for(int home) {
  std::vector<Hint> out;
  std::deque<Hint> keep;
  for (auto& h : hints_) {
    if (h.home == home)
      out.push_back(h);
    else
      keep.push_back(h);
  }
  hints_.swap(keep);
  return out;
}

}  // namespace ntier::kv
