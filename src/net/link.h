#pragma once

#include "sim/rng.h"
#include "sim/simulation.h"
#include "sim/time.h"

namespace ntier::net {

/// One-way latency of every simulated network link (client, Apache-Tomcat,
/// Tomcat-database, KV and cache hops).
inline constexpr sim::SimTime kLinkLatency = sim::SimTime::micros(100);

/// A one-way network hop with fixed propagation/processing latency. The
/// paper's testbed is a 1 Gbps LAN where transfer time is negligible next to
/// service times, so a constant per-hop latency captures the relevant cost.
///
/// For fault injection the link additionally carries a mutable *fault
/// state*: extra latency (congestion, a flapping switch) and a packet-loss
/// probability. Loss is not applied inside `deliver` — a sender that wants
/// loss semantics asks `drops()` first, because what a drop *means* (silent
/// SYN loss discovered by the retransmission timer, vs. a failed RPC) is the
/// sender's business.
class Link {
 public:
  explicit Link(sim::SimTime latency = kLinkLatency)
      : latency_(latency) {}

  /// Effective one-way latency including any injected fault latency.
  sim::SimTime latency() const { return latency_ + extra_latency_; }
  sim::SimTime base_latency() const { return latency_; }
  sim::SimTime extra_latency() const { return extra_latency_; }
  double loss_probability() const { return loss_probability_; }
  bool faulted() const {
    return extra_latency_ > sim::SimTime::zero() || loss_probability_ > 0;
  }

  /// Inject a link fault: added one-way latency and/or packet loss.
  void set_fault(sim::SimTime extra_latency, double loss_probability) {
    extra_latency_ = extra_latency;
    loss_probability_ = loss_probability;
  }
  void clear_fault() { set_fault(sim::SimTime::zero(), 0.0); }

  /// Draw whether the next packet is lost under the current fault state.
  bool drops(sim::Rng& rng) const {
    return loss_probability_ > 0 && rng.bernoulli(loss_probability_);
  }

  /// Deliver `fn` on the far side after the link latency.
  void deliver(sim::Simulation& simu, sim::Callback<void()> fn) const {
    simu.after(latency(), std::move(fn));
  }

 private:
  sim::SimTime latency_;
  sim::SimTime extra_latency_;
  double loss_probability_ = 0;
};

}  // namespace ntier::net
