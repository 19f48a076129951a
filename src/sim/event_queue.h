#pragma once

#include <array>
#include <cstdint>

#include "sim/callback.h"
#include "sim/slot_table.h"
#include "sim/time.h"

namespace ntier::sim {

/// Identifier of a scheduled event; usable to cancel it before it fires.
/// A SlotTable handle (generation << 32 | slot); no valid id is ever 0.
using EventId = std::uint64_t;
inline constexpr EventId kInvalidEventId = 0;

/// Priority queue of timed callbacks. Events fire in the exact total order
/// (time, scheduling order): ties are FIFO, so runs are deterministic.
///
/// Implementation: a near heap in front of a timer wheel, over one
/// generation-tagged SlotTable that owns the callbacks. Time is cut into
/// buckets of 2^kBucketShift ns; `horizon_` is the first bucket not yet
/// handed to the heap.
/// - Near: a 4-ary heap of POD nodes {time, sequence, id} holding every
///   event before the horizon. Cancellation there is lazy: a node whose id
///   no longer resolves is skipped when it surfaces.
/// - Wheel: the rest of the horizon's *period* (kFine buckets) sits in one
///   list per bucket; the next kCoarse - 1 periods sit in one list per
///   period. The lists are intrusive (prev/next slot indices in the
///   SlotTable record), so a push allocates nothing once the table is warm
///   and a cancel unlinks its record in O(1): a cancelled far timer never
///   reaches the heap.
/// - Overflow: a second heap for events beyond the wheel, nearly always
///   empty because the wheel outspans the models' timers.
/// When the heap runs dry, the next non-empty fine bucket moves into it and
/// the horizon passes that bucket. When the horizon enters a new period,
/// that period's coarse list is spread over the fine buckets and overflow
/// events now in reach join the wheel. Every heap event precedes every
/// wheel event, so popping the heap's top keeps the total order.
///
/// This is the simulator's hottest loop: every request touches it about a
/// dozen times, and at the paper's operating point ~70k think timers are
/// pending at once, almost all of them on the wheel.
class EventQueue {
 public:
  EventQueue() { heads_.fill(kNil); }

  /// Schedule `fn` at absolute time `at`. Returns an id for cancellation.
  EventId push(SimTime at, Callback<void()> fn);

  /// Cancel a pending event. Returns false if the event already fired,
  /// was already cancelled, or never existed. O(1).
  bool cancel(EventId id);

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
  /// 2^22 ns = 4.19 ms buckets: at the paper's operating point 91% of
  /// pushes fire within 1 ms and go straight to the heap, which then holds
  /// one bucket of far events (a few hundred at 10k req/s) instead of all.
  static constexpr int kBucketShift = 22;
  /// 2^10 fine buckets make a 4.29 s period, and 2^4 coarse lists reach 15
  /// periods (64 s) ahead: more than nine means of the 7 s think time and
  /// eight times the 8 s replay patience, so overflow is rare. The whole
  /// wheel is 4 KB of list heads.
  static constexpr int kFineBits = 10;
  static constexpr std::size_t kFine = std::size_t{1} << kFineBits;
  static constexpr std::size_t kCoarse = 16;
  static constexpr std::uint32_t kNil = 0xFFFFFFFF;      // end of a list
  static constexpr std::uint32_t kOffWheel = 0xFFFFFFFE;  // prev when unlinked

  /// The SlotTable record: the callback plus its key and wheel links.
  struct Pending {
    Callback<void()> fn;
    SimTime at;
    std::uint64_t seq = 0;            // push order; FIFO tie-break
    std::uint32_t prev = kOffWheel;   // kNil at a list's head
    std::uint32_t next = kNil;
  };
  /// What moves during sifts: 24 bytes, no callback traffic.
  struct Node {
    SimTime at;
    std::uint64_t seq = 0;
    EventId id = kInvalidEventId;
  };
  struct Before {
    bool operator()(const Node& a, const Node& b) const {
      return a.at != b.at ? a.at < b.at : a.seq < b.seq;
    }
  };

  static std::int64_t bucket_of(SimTime t) { return t.ns() >> kBucketShift; }
  static std::int64_t period_of(std::int64_t bucket) { return bucket >> kFineBits; }

  /// Where an event of `bucket` (at or past the horizon) is kept: a fine
  /// list index, a coarse list index (kFine + period mod kCoarse), or
  /// kOverflow beyond the wheel.
  static constexpr std::size_t kOverflow = kFine + kCoarse;
  std::size_t place(std::int64_t bucket) const;

  /// Bring the earliest live event to the heap's top; leaves the heap
  /// empty only when the queue is.
  void settle() const;
  /// Move the next non-empty fine bucket into the heap. False when nothing
  /// live lies past the horizon.
  bool turn() const;
  /// The horizon just entered a new period: spread its coarse list over
  /// the fine buckets and admit overflow events now in reach.
  void enter_period() const;
  void link(std::uint32_t slot, std::size_t list) const;
  void unlink(std::uint32_t slot) const;

  // Mutable: next_time() is logically const but may shed cancelled tops
  // and turn the wheel.
  mutable QuadHeap<Node, Before> near_;
  mutable QuadHeap<Node, Before> overflow_;
  mutable SlotTable<Pending> slots_;
  mutable std::array<std::uint32_t, kFine + kCoarse> heads_;
  mutable std::array<std::uint64_t, kFine / 64> fine_occupied_{};
  mutable std::int64_t horizon_ = 0;  // first bucket not yet in the heap
  std::uint64_t scheduled_ = 0;
};

}  // namespace ntier::sim
