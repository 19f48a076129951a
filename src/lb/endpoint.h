#pragma once

#include <cstdint>
#include <deque>
#include <memory>
#include <stdexcept>
#include <string>

#include "lb/worker_record.h"
#include "obs/trace.h"
#include "sim/callback.h"
#include "sim/simulation.h"
#include "sim/slot_table.h"
#include "sim/time.h"

namespace ntier::lb {

/// AJP connection pool between one Apache and one Tomcat
/// (mod_jk `connection_pool_size`). An *endpoint* is a pooled connection; a
/// free endpoint is what `get_endpoint` hunts for. Slots are released when
/// the response comes back, so a stalled Tomcat pins every slot and starves
/// the pool — the trigger of the mechanism limitation.
///
/// Besides the polling-style `try_acquire`, the pool supports FIFO waiters
/// (`acquire_or_wait`): a condvar-style connection pool as used between the
/// servlets and the database, where a `release` hands the slot to the first
/// waiter directly. Waiters are cancellable (a higher layer that times out
/// must withdraw, or a later release would hand it a slot nobody returns)
/// and the whole queue can be `drain`ed when the backend crashes so queued
/// work fails fast instead of waiting on a dead worker.
class EndpointPool {
 public:
  using WaiterId = std::uint64_t;

  explicit EndpointPool(std::size_t capacity) : capacity_(capacity) {}
  // Waiters hold move-only callbacks; spelling out move-only lets the
  // balancer's vector of pools relocate by move.
  EndpointPool(const EndpointPool&) = delete;
  EndpointPool& operator=(const EndpointPool&) = delete;
  EndpointPool(EndpointPool&&) = default;
  EndpointPool& operator=(EndpointPool&&) = default;

  bool try_acquire() {
    if (in_use_ >= capacity_) return false;
    ++in_use_;
    return true;
  }

  /// Acquire immediately when a slot is free, otherwise join the FIFO wait
  /// queue. `granted(true)` runs (synchronously, or later on release) once
  /// the slot is held; `granted(false)` when the pool is drained first.
  /// Returns 0 when the slot was granted synchronously, else a waiter id
  /// usable with `cancel_waiter`.
  WaiterId acquire_or_wait(sim::Callback<void(bool)> granted) {
    if (try_acquire()) {
      granted(true);
      return 0;
    }
    const WaiterId id = next_waiter_id_++;
    waiters_.push_back(Waiter{id, std::move(granted)});
    return id;
  }

  /// Withdraw a queued waiter. Returns false when the waiter already left
  /// the queue (granted, drained, or cancelled before); its callback never
  /// runs after a successful cancel.
  bool cancel_waiter(WaiterId id) {
    for (auto it = waiters_.begin(); it != waiters_.end(); ++it) {
      if (it->id == id) {
        waiters_.erase(it);
        return true;
      }
    }
    return false;
  }

  /// Fail every queued waiter (`granted(false)`) — used when the backend
  /// behind this pool crashes, so queued work fails over instead of waiting
  /// on a dead worker. Held slots stay held until their releases arrive.
  void drain() {
    std::deque<Waiter> failed;
    failed.swap(waiters_);
    for (auto& w : failed) w.granted(false);
  }

  void release() {
    if (in_use_ == 0) throw std::logic_error("EndpointPool: release underflow");
    if (in_use_ > capacity_) {
      // The pool shrank (fault-injected capacity change) while this slot was
      // out: retire it instead of handing it to a waiter.
      --in_use_;
      return;
    }
    if (!waiters_.empty()) {
      // Hand the slot to the first waiter; in_use_ stays constant.
      auto granted = std::move(waiters_.front().granted);
      waiters_.pop_front();
      granted(true);
      return;
    }
    --in_use_;
  }

  /// Fault-injection / reconfiguration hook. Growing the pool admits queued
  /// waiters into the new slots; shrinking lets `release` retire slots until
  /// in_use fits again.
  void set_capacity(std::size_t capacity) {
    capacity_ = capacity;
    while (!waiters_.empty() && in_use_ < capacity_) {
      ++in_use_;
      auto granted = std::move(waiters_.front().granted);
      waiters_.pop_front();
      granted(true);
    }
  }

  std::size_t in_use() const { return in_use_; }
  std::size_t capacity() const { return capacity_; }
  std::size_t waiting() const { return waiters_.size(); }
  bool exhausted() const { return in_use_ >= capacity_; }

 private:
  struct Waiter {
    WaiterId id;
    sim::Callback<void(bool)> granted;
  };

  std::size_t capacity_;
  std::size_t in_use_ = 0;
  WaiterId next_waiter_id_ = 1;
  std::deque<Waiter> waiters_;
};

/// Which `get_endpoint` implementation a balancer runs.
enum class MechanismKind {
  kBlocking,     // stock mod_jk (Algorithm 1): poll-and-sleep up to a timeout
  kNonBlocking,  // the paper's remedy: fail fast, treat the worker as Busy
  kQueueing,     // condvar-style pool: wait FIFO, woken on release (DB pools)
};

std::string to_string(MechanismKind k);

/// Lower-level mechanism: obtain a free endpoint from the candidate's pool.
/// The call is asynchronous because the stock implementation consumes
/// simulated time while polling.
class EndpointAcquirer {
 public:
  virtual ~EndpointAcquirer() = default;
  virtual MechanismKind kind() const = 0;
  std::string name() const { return to_string(kind()); }

  /// Observability context for the *next* acquire call: which request is
  /// hunting which worker's pool on behalf of which balancer. Set by the
  /// LoadBalancer immediately before each acquire (the call entry is
  /// synchronous, so implementations copy it into their own state); a null
  /// collector disables emission. Lets the stock blocking implementation
  /// report each Algorithm-1 poll wake-up as a get_endpoint_poll event.
  struct TraceContext {
    obs::TraceCollector* trace = nullptr;
    int node = -1;    // owning balancer's Apache id
    int worker = -1;  // candidate Tomcat index
    std::uint64_t request = 0;
  };
  void set_trace_context(const TraceContext& ctx) { trace_ctx_ = ctx; }

  /// Try to acquire a slot in `pool`; invoke `done(true)` once acquired or
  /// `done(false)` when the mechanism gives up. Implementations must not
  /// mutate `rec` — state transitions on failure belong to the balancer —
  /// but receive it for introspection/assertions.
  virtual void acquire(sim::Simulation& simu, EndpointPool& pool,
                       const WorkerRecord& rec,
                       sim::Callback<void(bool)> done) = 0;

 protected:
  TraceContext trace_ctx_;
};

/// Stock mod_jk behaviour (Algorithm 1): check for a free endpoint, and if
/// none, sleep `JK_SLEEP_DEF` and re-check until `cache_acquire_timeout`
/// elapses. Crucially the candidate's state and lb_value are untouched for
/// the whole wait — the worker stays Available and keeps attracting picks.
class BlockingAcquirer final : public EndpointAcquirer {
 public:
  struct Params {
    sim::SimTime sleep_interval = sim::SimTime::millis(100);   // JK_SLEEP_DEF
    sim::SimTime acquire_timeout = sim::SimTime::millis(300);  // cache_acquire_timeout
  };

  BlockingAcquirer() = default;
  explicit BlockingAcquirer(Params p) : params_(p) {}
  MechanismKind kind() const override { return MechanismKind::kBlocking; }
  const Params& params() const { return params_; }

  void acquire(sim::Simulation& simu, EndpointPool& pool, const WorkerRecord& rec,
               sim::Callback<void(bool)> done) override;

 private:
  /// One parked worker thread's Algorithm-1 loop; its wake-ups capture only
  /// the handle.
  struct Poll {
    sim::Simulation* simu = nullptr;
    EndpointPool* pool = nullptr;
    sim::Callback<void(bool)> done;
    sim::SimTime waited;
    TraceContext trace;
  };
  void poll_step(sim::SlotTable<Poll>::Handle h);
  /// Settle the poll: free its slot, then report `ok`.
  void finish(sim::SlotTable<Poll>::Handle h, bool ok);

  Params params_;
  sim::SlotTable<Poll> polls_;
};

/// The paper's mechanism remedy (§IV-C): a single immediate attempt. On
/// failure the balancer conservatively treats the candidate as Busy and
/// moves on — a millibottleneck is indistinguishable from exhaustion in the
/// moment, and a fast decision beats a 300 ms stall.
class NonBlockingAcquirer final : public EndpointAcquirer {
 public:
  MechanismKind kind() const override { return MechanismKind::kNonBlocking; }
  void acquire(sim::Simulation& simu, EndpointPool& pool, const WorkerRecord& rec,
               sim::Callback<void(bool)> done) override;
};

/// Condvar-style acquisition: waits FIFO on the chosen pool and is woken
/// directly by the releasing request. This is how the servlet-side DB
/// connection pools behave; note that it *commits* to the chosen worker, so
/// only an adaptive policy protects it from queueing behind a
/// millibottleneck. An optional wait timeout (zero = wait forever, the
/// classic pool) cancels the waiter and fails the acquisition instead of
/// leaking the eventually-granted slot — the hook the front-end retry layer
/// builds on. The acquisition also fails fast when the pool is drained on a
/// backend crash.
class QueueingAcquirer final : public EndpointAcquirer {
 public:
  struct Params {
    sim::SimTime wait_timeout = sim::SimTime::zero();  // zero: unbounded wait
  };

  QueueingAcquirer() = default;
  explicit QueueingAcquirer(Params p) : params_(p) {}
  MechanismKind kind() const override { return MechanismKind::kQueueing; }
  const Params& params() const { return params_; }

  void acquire(sim::Simulation& simu, EndpointPool& pool, const WorkerRecord& rec,
               sim::Callback<void(bool)> done) override;

 private:
  /// A bounded wait: the grant (or drain) and the timeout race for it. The
  /// winner frees the slot, so the loser's handle goes stale and it becomes
  /// a no-op.
  struct Wait {
    EndpointPool* pool = nullptr;
    EndpointPool::WaiterId id = 0;
    sim::Callback<void(bool)> done;
  };
  void settle(sim::SlotTable<Wait>::Handle h, bool ok);

  Params params_;
  sim::SlotTable<Wait> waits_;
};

std::unique_ptr<EndpointAcquirer> make_acquirer(
    MechanismKind kind, BlockingAcquirer::Params params = {},
    QueueingAcquirer::Params queueing_params = {});

}  // namespace ntier::lb
