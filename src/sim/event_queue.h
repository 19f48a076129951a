#pragma once

#include <cstdint>

#include "sim/callback.h"
#include "sim/slot_table.h"
#include "sim/time.h"

namespace ntier::sim {

/// Identifier of a scheduled event; usable to cancel it before it fires.
/// A SlotTable handle (generation << 32 | slot); no valid id is ever 0.
using EventId = std::uint64_t;
inline constexpr EventId kInvalidEventId = 0;

/// Min-heap of timed callbacks. Ties are broken by scheduling order (FIFO
/// among events at the same instant) so runs are deterministic.
///
/// Implementation: a 4-ary heap of small POD nodes {time, sequence, id}
/// over a generation-tagged SlotTable that owns the callbacks. Cancellation
/// is O(1) (free the slot and its closure) and lazy in the heap: a node
/// whose id no longer resolves is skipped when it surfaces at the top. No
/// per-event hashing or allocation anywhere on the push/cancel/pop path —
/// this is the simulator's hottest loop (every request touches it a dozen
/// times).
class EventQueue {
 public:
  /// Schedule `fn` at absolute time `at`. Returns an id for cancellation.
  EventId push(SimTime at, Callback<void()> fn);

  /// Cancel a pending event. Returns false if the event already fired,
  /// was already cancelled, or never existed. O(1).
  bool cancel(EventId id) { return slots_.erase(id); }

  /// True when no live (non-cancelled) event remains.
  bool empty() const { return slots_.empty(); }

  std::size_t size() const { return slots_.size(); }

  /// Time of the earliest live event; SimTime::max() when empty.
  SimTime next_time() const;

  /// Pop the earliest live event. Precondition: !empty().
  struct Fired {
    SimTime at;
    Callback<void()> fn;
  };
  Fired pop();

  /// Total events ever scheduled (stats / microbench instrumentation).
  std::uint64_t total_scheduled() const { return scheduled_; }

 private:
  /// What moves during sifts: 24 bytes, no callback traffic.
  struct Node {
    SimTime at;
    std::uint64_t seq = 0;  // push order; FIFO tie-break at equal times
    EventId id = kInvalidEventId;
  };
  struct Before {
    bool operator()(const Node& a, const Node& b) const {
      return a.at != b.at ? a.at < b.at : a.seq < b.seq;
    }
  };

  /// Drop cancelled nodes from the top until a live one (or empty) surfaces.
  void prune_top() const;

  // Mutable: next_time() is logically const but may shed cancelled tops.
  mutable QuadHeap<Node, Before> heap_;
  SlotTable<Callback<void()>> slots_;
  std::uint64_t scheduled_ = 0;
};

}  // namespace ntier::sim
