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
  const OpHandle h = ops_.insert(Op{demand, std::move(done)});
  if (executing_ < kReplicaMaxConnections) {
    start(h);
  } else {
    waiting_.push_back(h);
  }
}

void KvReplica::set_slow(double severity) {
  severity = std::clamp(severity, 0.0, 0.99);
  slow_factor_ = 1.0 / (1.0 - severity);
}

void KvReplica::start(OpHandle h) {
  ++executing_;
  sim::SimTime demand = ops_[h].demand;
  if (slow()) {
    demand = sim::SimTime::from_seconds(demand.to_seconds() * slow_factor_);
    ++slow_ops_;
  }
  node_.cpu().submit(demand, [this, h] { on_op_done(h); });
}

void KvReplica::on_op_done(OpHandle h) {
  const sim::Callback<void()> done = std::move(ops_.take(h).done);
  --executing_;
  --resident_;
  ++served_;
  if (queue_series_) queue_series_->set(sim_.now(), resident_);
  if (!waiting_.empty() && executing_ < kReplicaMaxConnections)
    start(waiting_.pop_front());
  if (done) done();
}

std::uint64_t KvReplica::version_of(std::uint64_t key) const {
  const std::uint64_t* v = versions_.find(key);
  return v ? *v : 0;
}

bool KvReplica::apply_write(std::uint64_t key, std::uint64_t version) {
  std::uint64_t* stored = versions_.find(key);
  if (version <= (stored ? *stored : 0)) return false;
  if (stored)
    *stored = version;
  else
    versions_.insert(key, version);
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
