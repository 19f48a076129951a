#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "sim/callback.h"
#include "sim/simulation.h"
#include "sim/slot_table.h"
#include "sim/time.h"

namespace ntier::os {

/// Processor-sharing CPU with `cores` cores and a transient *capacity
/// factor* in [0, 1].
///
/// Each submitted job carries a service demand (CPU time at full speed on
/// one core). All runnable jobs progress at
///     rate = factor * min(1, cores / n_jobs)
/// per job — the classic egalitarian PS model, capped so a single job never
/// exceeds one core. A millibottleneck *is* a transient drop of the factor
/// towards 0 (e.g. pdflush saturating iowait and starving the foreground).
///
/// Implementation: virtual-time PS. V(t) integrates the per-job rate; job j
/// finishes when V reaches V(start_j) + demand_j, so arrivals/departures are
/// O(log n) instead of rescanning every job. Pending jobs are POD nodes
/// {v_end, submit seq, id} in a 4-ary heap (ties complete in submit order);
/// their completion callbacks live in a generation-tagged SlotTable, so a
/// job id is a slot handle, cancel is O(1) and a stale id never resolves.
/// Nothing allocates once the tables reach their high-water mark.
class CpuResource {
 public:
  using JobId = std::uint64_t;
  static constexpr JobId kInvalidJob = 0;

  CpuResource(sim::Simulation& simu, int cores, std::string name = "cpu");

  CpuResource(const CpuResource&) = delete;
  CpuResource& operator=(const CpuResource&) = delete;

  /// Submit a job with the given full-speed demand. `on_complete` fires when
  /// the job has accumulated that much service.
  JobId submit(sim::SimTime demand, sim::Callback<void()> on_complete);

  /// Abandon a job before completion. Returns false if already finished or
  /// cancelled (including a stale id whose slot now holds another job).
  bool cancel(JobId id);

  /// Change the effective speed (0 = fully stalled). Takes effect
  /// immediately for all in-flight jobs.
  void set_capacity_factor(double f);
  double capacity_factor() const { return factor_; }

  int cores() const { return cores_; }
  std::size_t jobs_running() const { return jobs_.size(); }
  const std::string& name() const { return name_; }

  /// Cumulative foreground work completed, in core-seconds.
  double work_done_core_seconds() const;

  /// Foreground utilisation over [since, now] as a fraction of total
  /// capacity; pair with stall to plot paper-style CPU graphs.
  struct UtilisationProbe {
    double foreground = 0;  // work done / (cores * dt)
    double stall = 0;       // mean (1 - factor) over dt
    double combined() const { return foreground + stall > 1.0 ? 1.0 : foreground + stall; }
  };
  /// Returns utilisation since the previous probe call (or since t=0).
  ///
  /// Not a pure read: it calls advance(), which splits the floating-point
  /// accumulation of the virtual clock v_ at the probe instant, so later
  /// completion times can differ in the last ulp. Probing therefore changes
  /// the simulation: at check scale paper_table1's digest is
  /// ebdbe125b32e7361 with config.tracing on and b8368083fc457221 with it
  /// off. A read-only probe (fold the pending now - last_update_ interval
  /// into the reading without writing v_) reproduces the tracing-off digest
  /// with tracing on; adopting it changes the committed ledger digests and
  /// trace goldens, so it waits for a change allowed to re-record them.
  UtilisationProbe probe_utilisation();

 private:
  struct HeapJob {
    double v_end = 0;        // virtual time at which the job completes
    std::uint64_t seq = 0;   // submit order: the tie-break at equal v_end
    JobId id = kInvalidJob;  // slot handle of the job's callback
  };
  struct Before {
    bool operator()(const HeapJob& a, const HeapJob& b) const {
      return a.v_end != b.v_end ? a.v_end < b.v_end : a.seq < b.seq;
    }
  };

  double rate_per_job() const;
  void advance();      // integrate V up to sim_.now()
  void reschedule();   // re-arm the next-completion event
  void on_completion_event();
  void pop_cancelled_top();

  sim::Simulation& sim_;
  int cores_;
  std::string name_;
  double factor_ = 1.0;

  sim::QuadHeap<HeapJob, Before> heap_;
  sim::SlotTable<sim::Callback<void()>> jobs_;  // live jobs' callbacks
  /// Callbacks of the jobs one completion event retires, run after the
  /// re-arm; reused so a completion allocates nothing.
  std::vector<sim::Callback<void()>> done_batch_;

  double v_ = 0;                 // virtual time, in ns of per-job service
  sim::SimTime last_update_;
  double work_done_ns_ = 0;      // foreground core-ns completed
  double stall_ns_ = 0;          // integral of (1-factor) dt
  sim::EventId completion_event_ = sim::kInvalidEventId;
  std::uint64_t next_seq_ = 0;

  // probe state
  double probe_last_work_ns_ = 0;
  double probe_last_stall_ns_ = 0;
  sim::SimTime probe_last_t_;
};

}  // namespace ntier::os
