#include "lb/endpoint.h"

#include <stdexcept>

namespace ntier::lb {

std::string to_string(MechanismKind k) {
  switch (k) {
    case MechanismKind::kBlocking: return "blocking_get_endpoint";
    case MechanismKind::kNonBlocking: return "modified_get_endpoint";
    case MechanismKind::kQueueing: return "queueing_pool";
  }
  return "?";
}

// Algorithm 1: with retry counted in units of JK_SLEEP_DEF, polls happen
// at t = 0, S, 2S, ... while retry*S < timeout; then the call fails. A
// failed check is always followed by a sleep; the loop condition
// (retry * JK_SLEEP_DEF < timeout) is evaluated on wake-up. With the
// defaults this checks at 0/100/200 ms and reports failure at 300 ms.
void BlockingAcquirer::acquire(sim::Simulation& simu, EndpointPool& pool,
                               const WorkerRecord& rec,
                               sim::Callback<void(bool)> done) {
  (void)rec;
  poll_step(polls_.insert(
      Poll{&simu, &pool, std::move(done), sim::SimTime::zero(), trace_ctx_}));
}

void BlockingAcquirer::poll_step(sim::SlotTable<Poll>::Handle h) {
  Poll& st = polls_[h];
  if (st.pool->try_acquire()) {
    finish(h, true);
    return;
  }
  // The initial failed check is covered by the balancer's attempt event;
  // wake-up re-checks are the 100 ms sleeps the worker thread spends parked.
  if (st.waited > sim::SimTime::zero())
    NTIER_TRACE_EVENT(st.trace.trace, st.simu->now(),
                      obs::EventKind::kGetEndpointPoll, obs::Tier::kBalancer,
                      st.trace.node, st.trace.worker, st.trace.request,
                      st.waited.to_millis());
  st.waited += params_.sleep_interval;
  st.simu->after(params_.sleep_interval, [this, h] {
    if (polls_[h].waited >= params_.acquire_timeout)
      finish(h, false);
    else
      poll_step(h);
  });
}

void BlockingAcquirer::finish(sim::SlotTable<Poll>::Handle h, bool ok) {
  const auto done = polls_.take(h).done;
  done(ok);
}

void NonBlockingAcquirer::acquire(sim::Simulation&, EndpointPool& pool,
                                  const WorkerRecord&,
                                  sim::Callback<void(bool)> done) {
  done(pool.try_acquire());
}

void QueueingAcquirer::acquire(sim::Simulation& simu, EndpointPool& pool,
                               const WorkerRecord&,
                               sim::Callback<void(bool)> done) {
  if (params_.wait_timeout <= sim::SimTime::zero()) {
    pool.acquire_or_wait(std::move(done));
    return;
  }
  // Bounded wait: whichever of {grant/drain, timeout} fires first settles
  // the acquisition; the timeout *cancels* the waiter so a later release
  // cannot hand a slot to a caller that already gave up (that slot would
  // never be returned).
  const auto h = waits_.insert(Wait{&pool, 0, std::move(done)});
  const auto id =
      pool.acquire_or_wait([this, h](bool ok) { settle(h, ok); });
  Wait* w = waits_.find(h);
  if (w == nullptr) return;  // granted (or drained) synchronously
  w->id = id;
  simu.after(params_.wait_timeout, [this, h] {
    const Wait* st = waits_.find(h);
    if (st == nullptr) return;  // granted or drained first
    if (st->pool->cancel_waiter(st->id)) settle(h, false);
  });
}

void QueueingAcquirer::settle(sim::SlotTable<Wait>::Handle h, bool ok) {
  const auto done = waits_.take(h).done;
  done(ok);
}

std::unique_ptr<EndpointAcquirer> make_acquirer(
    MechanismKind kind, BlockingAcquirer::Params params,
    QueueingAcquirer::Params queueing_params) {
  switch (kind) {
    case MechanismKind::kBlocking:
      return std::make_unique<BlockingAcquirer>(params);
    case MechanismKind::kNonBlocking:
      return std::make_unique<NonBlockingAcquirer>();
    case MechanismKind::kQueueing:
      return std::make_unique<QueueingAcquirer>(queueing_params);
  }
  throw std::invalid_argument("make_acquirer: unknown kind");
}

}  // namespace ntier::lb
