#pragma once

#include <cstdint>
#include <deque>
#include <string>

#include "sim/callback.h"
#include "sim/simulation.h"
#include "sim/time.h"

namespace ntier::os {

/// FIFO byte server modelling a single spindle (the paper's testbed uses a
/// 7200-rpm SATA disk). Writeback from pdflush is its only client in the
/// reproduction scenarios, so its busy fraction doubles as the node's iowait
/// signal (Fig. 2(d)).
class Disk {
 public:
  Disk(sim::Simulation& simu, double bytes_per_second,
       std::string name = "disk");

  Disk(const Disk&) = delete;
  Disk& operator=(const Disk&) = delete;

  /// Enqueue a write of `bytes`; `on_complete` fires when it has fully hit
  /// the platter (FIFO order).
  void submit_write(std::uint64_t bytes, sim::Callback<void()> on_complete);

  bool busy() const { return busy_; }
  std::size_t queue_depth() const { return queue_.size(); }
  double bytes_per_second() const { return rate_ * rate_factor_; }
  double nominal_bytes_per_second() const { return rate_; }

  /// Scale the effective write bandwidth (fault injection: a degraded
  /// spindle, RAID rebuild, noisy neighbour). Applies from the next write;
  /// the in-flight write finishes at the rate it started with. 1.0 restores
  /// nominal throughput.
  void set_rate_factor(double factor);
  double rate_factor() const { return rate_factor_; }

  /// Cumulative busy time in seconds.
  double busy_seconds() const;

  /// Busy fraction since the previous probe call — the iowait series.
  double probe_busy_fraction();

 private:
  void start_next();

  sim::Simulation& sim_;
  double rate_;
  double rate_factor_ = 1.0;
  std::string name_;

  struct Pending {
    std::uint64_t bytes;
    sim::Callback<void()> on_complete;
  };
  std::deque<Pending> queue_;
  bool busy_ = false;
  sim::SimTime busy_since_;
  double busy_ns_ = 0;

  double probe_last_busy_ns_ = 0;
  sim::SimTime probe_last_t_;
};

}  // namespace ntier::os
