#include "os/cpu.h"

#include <cassert>
#include <cmath>
#include <stdexcept>

namespace ntier::os {

namespace {
// Virtual-time comparison tolerance (ns of service). Scheduled completion
// delays are rounded *up* to integer ns, so V slightly overshoots v_end;
// accumulated double error stays far below this at any realistic run length.
constexpr double kVEps = 0.5;
}  // namespace

CpuResource::CpuResource(sim::Simulation& simu, int cores, std::string name)
    : sim_(simu), cores_(cores), name_(std::move(name)) {
  if (cores <= 0) throw std::invalid_argument("CpuResource: cores must be positive");
  last_update_ = sim_.now();
  probe_last_t_ = sim_.now();
}

double CpuResource::rate_per_job() const {
  const std::size_t live = jobs_.size();
  if (live == 0) return 0.0;
  const double share =
      live <= static_cast<std::size_t>(cores_)
          ? 1.0
          : static_cast<double>(cores_) / static_cast<double>(live);
  return factor_ * share;
}

void CpuResource::advance() {
  const sim::SimTime now = sim_.now();
  const double dt = static_cast<double>((now - last_update_).ns());
  if (dt <= 0) {
    last_update_ = now;
    return;
  }
  const double rate = rate_per_job();
  v_ += dt * rate;
  work_done_ns_ += dt * rate * static_cast<double>(jobs_.size());
  stall_ns_ += dt * (1.0 - factor_);
  last_update_ = now;
}

void CpuResource::pop_cancelled_top() {
  while (!heap_.empty() && !jobs_.contains(heap_.top().id)) heap_.pop();
}

void CpuResource::reschedule() {
  if (completion_event_ != sim::kInvalidEventId) {
    sim_.cancel(completion_event_);
    completion_event_ = sim::kInvalidEventId;
  }
  pop_cancelled_top();
  if (heap_.empty()) return;
  const double rate = rate_per_job();
  if (rate <= 0.0) return;  // fully stalled; re-armed when the factor recovers
  const double remaining = heap_.top().v_end - v_;
  const double delay_ns = remaining <= 0 ? 0 : std::ceil(remaining / rate);
  completion_event_ = sim_.after(sim::SimTime::nanos(static_cast<std::int64_t>(delay_ns)),
                                 [this] { on_completion_event(); });
}

void CpuResource::on_completion_event() {
  completion_event_ = sim::kInvalidEventId;
  advance();
  // The batch is only ever filled here, and this runs from its own event,
  // so the callbacks below cannot re-enter it.
  assert(done_batch_.empty());
  pop_cancelled_top();
  while (!heap_.empty() && heap_.top().v_end <= v_ + kVEps) {
    const JobId id = heap_.top().id;
    heap_.pop();
    done_batch_.push_back(jobs_.take(id));
    pop_cancelled_top();
  }
  reschedule();
  for (auto& cb : done_batch_) cb();
  done_batch_.clear();
}

CpuResource::JobId CpuResource::submit(sim::SimTime demand,
                                       sim::Callback<void()> on_complete) {
  if (demand.ns() < 0) throw std::invalid_argument("CpuResource: negative demand");
  advance();
  const JobId id = jobs_.insert(std::move(on_complete));
  heap_.push(HeapJob{v_ + static_cast<double>(demand.ns()), next_seq_++, id});
  reschedule();
  return id;
}

bool CpuResource::cancel(JobId id) {
  if (!jobs_.contains(id)) return false;
  advance();
  jobs_.erase(id);
  reschedule();
  return true;
}

void CpuResource::set_capacity_factor(double f) {
  if (f < 0.0 || f > 1.0)
    throw std::invalid_argument("CpuResource: factor must be in [0,1]");
  advance();
  factor_ = f;
  reschedule();
}

double CpuResource::work_done_core_seconds() const { return work_done_ns_ * 1e-9; }

CpuResource::UtilisationProbe CpuResource::probe_utilisation() {
  advance();
  const sim::SimTime now = sim_.now();
  const double dt = static_cast<double>((now - probe_last_t_).ns());
  UtilisationProbe p;
  if (dt > 0) {
    p.foreground = (work_done_ns_ - probe_last_work_ns_) /
                   (dt * static_cast<double>(cores_));
    p.stall = (stall_ns_ - probe_last_stall_ns_) / dt;
  }
  probe_last_work_ns_ = work_done_ns_;
  probe_last_stall_ns_ = stall_ns_;
  probe_last_t_ = now;
  return p;
}

}  // namespace ntier::os
