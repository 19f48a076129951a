#include "os/disk.h"

#include <cmath>
#include <stdexcept>
#include <utility>

namespace ntier::os {

Disk::Disk(sim::Simulation& simu, double bytes_per_second, std::string name)
    : sim_(simu), rate_(bytes_per_second), name_(std::move(name)) {
  if (bytes_per_second <= 0)
    throw std::invalid_argument("Disk: rate must be positive");
  probe_last_t_ = sim_.now();
}

void Disk::submit_write(std::uint64_t bytes, sim::Callback<void()> on_complete) {
  queue_.push_back(Pending{bytes, std::move(on_complete)});
  if (!busy_) start_next();
}

void Disk::start_next() {
  if (queue_.empty()) return;
  busy_ = true;
  busy_since_ = sim_.now();
  const Pending& head = queue_.front();
  const double secs = static_cast<double>(head.bytes) / (rate_ * rate_factor_);
  sim_.after(sim::SimTime::from_seconds(secs), [this] {
    busy_ns_ += static_cast<double>((sim_.now() - busy_since_).ns());
    busy_ = false;
    auto done = std::move(queue_.front().on_complete);
    queue_.pop_front();
    start_next();
    if (done) done();
  });
}

void Disk::set_rate_factor(double factor) {
  if (factor <= 0 || factor > 1.0)
    throw std::invalid_argument("Disk: rate factor must be in (0, 1]");
  rate_factor_ = factor;
}

double Disk::busy_seconds() const {
  double ns = busy_ns_;
  if (busy_) ns += static_cast<double>((sim_.now() - busy_since_).ns());
  return ns * 1e-9;
}

double Disk::probe_busy_fraction() {
  const double total_ns = busy_seconds() * 1e9;
  const sim::SimTime now = sim_.now();
  const double dt = static_cast<double>((now - probe_last_t_).ns());
  double frac = 0;
  if (dt > 0) frac = (total_ns - probe_last_busy_ns_) / dt;
  probe_last_busy_ns_ = total_ns;
  probe_last_t_ = now;
  return frac < 0 ? 0 : (frac > 1 ? 1 : frac);
}

}  // namespace ntier::os
