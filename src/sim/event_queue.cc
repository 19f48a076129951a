#include "sim/event_queue.h"

#include <bit>
#include <cassert>
#include <utility>

namespace ntier::sim {

namespace {
constexpr std::size_t kWordBits = 64;
}  // namespace

std::size_t EventQueue::place(std::int64_t bucket) const {
  const std::int64_t ahead = period_of(bucket) - period_of(horizon_);
  if (ahead == 0) return static_cast<std::size_t>(bucket) & (kFine - 1);
  if (ahead < static_cast<std::int64_t>(kCoarse))
    return kFine + (static_cast<std::size_t>(period_of(bucket)) & (kCoarse - 1));
  return kOverflow;
}

EventId EventQueue::push(SimTime at, Callback<void()> fn) {
  const std::uint64_t seq = ++scheduled_;
  const EventId id = slots_.insert(Pending{std::move(fn), at, seq});
  const std::int64_t bucket = bucket_of(at);
  if (bucket < horizon_) {
    near_.push(Node{at, seq, id});
  } else if (const std::size_t list = place(bucket); list != kOverflow) {
    link(SlotTable<Pending>::slot_of(id), list);
  } else {
    overflow_.push(Node{at, seq, id});
  }
  return id;
}

bool EventQueue::cancel(EventId id) {
  const Pending* p = slots_.find(id);
  if (p == nullptr) return false;
  if (p->prev != kOffWheel) unlink(SlotTable<Pending>::slot_of(id));
  slots_.erase(id);
  return true;
}

void EventQueue::link(std::uint32_t slot, std::size_t list) const {
  Pending& p = slots_.at_slot(slot);
  p.prev = kNil;
  p.next = heads_[list];
  if (p.next != kNil) slots_.at_slot(p.next).prev = slot;
  heads_[list] = slot;
  if (list < kFine)
    fine_occupied_[list / kWordBits] |= std::uint64_t{1} << (list % kWordBits);
}

void EventQueue::unlink(std::uint32_t slot) const {
  Pending& p = slots_.at_slot(slot);
  if (p.next != kNil) slots_.at_slot(p.next).prev = p.prev;
  if (p.prev != kNil) {
    slots_.at_slot(p.prev).next = p.next;
  } else {
    const std::size_t list = place(bucket_of(p.at));
    heads_[list] = p.next;
    if (p.next == kNil && list < kFine)
      fine_occupied_[list / kWordBits] &= ~(std::uint64_t{1} << (list % kWordBits));
  }
  p.prev = kOffWheel;
}

void EventQueue::enter_period() const {
  const std::size_t coarse =
      kFine + (static_cast<std::size_t>(period_of(horizon_)) & (kCoarse - 1));
  std::uint32_t slot = heads_[coarse];
  heads_[coarse] = kNil;
  while (slot != kNil) {
    Pending& p = slots_.at_slot(slot);
    const std::uint32_t next = p.next;
    link(slot, static_cast<std::size_t>(bucket_of(p.at)) & (kFine - 1));
    slot = next;
  }
  while (!overflow_.empty()) {
    const Node& n = overflow_.top();
    const std::size_t list = place(bucket_of(n.at));
    if (list == kOverflow) break;
    if (slots_.contains(n.id)) link(SlotTable<Pending>::slot_of(n.id), list);
    overflow_.pop();
  }
}

bool EventQueue::turn() const {
  assert(near_.empty());
  while (true) {
    // The first non-empty fine bucket at or after the horizon's.
    const std::size_t start = static_cast<std::size_t>(horizon_) & (kFine - 1);
    std::size_t word = start / kWordBits;
    std::uint64_t bits = fine_occupied_[word] & (~std::uint64_t{0} << (start % kWordBits));
    while (bits == 0 && ++word < fine_occupied_.size()) bits = fine_occupied_[word];
    if (bits != 0) {
      const std::size_t list =
          word * kWordBits + static_cast<std::size_t>(std::countr_zero(bits));
      // Every record on the wheel is live (cancel unlinks), so each moves.
      // The heap is empty here, so the bucket is loaded in bulk.
      for (std::uint32_t slot = heads_[list]; slot != kNil;) {
        Pending& p = slots_.at_slot(slot);
        near_.append(Node{p.at, p.seq, slots_.handle_at(slot)});
        p.prev = kOffWheel;
        slot = p.next;
      }
      near_.heapify();
      heads_[list] = kNil;
      fine_occupied_[word] &= ~(std::uint64_t{1} << (list % kWordBits));
      horizon_ = (period_of(horizon_) << kFineBits) + static_cast<std::int64_t>(list) + 1;
      if ((static_cast<std::size_t>(horizon_) & (kFine - 1)) == 0) enter_period();
      return true;
    }
    // The rest of this period is empty: jump to the next period holding a
    // coarse list, or else to the earliest live overflow event's period.
    const std::int64_t last = period_of(horizon_) + static_cast<std::int64_t>(kCoarse);
    std::int64_t period = period_of(horizon_) + 1;
    while (period < last &&
           heads_[kFine + (static_cast<std::size_t>(period) & (kCoarse - 1))] == kNil)
      ++period;
    if (period == last) {
      while (!overflow_.empty() && !slots_.contains(overflow_.top().id))
        overflow_.pop();
      if (overflow_.empty()) return false;
      period = period_of(bucket_of(overflow_.top().at));
    }
    horizon_ = period << kFineBits;
    enter_period();
  }
}

void EventQueue::settle() const {
  do {
    while (!near_.empty() && !slots_.contains(near_.top().id)) near_.pop();
  } while (near_.empty() && turn());
}

SimTime EventQueue::next_time() const {
  settle();
  return near_.empty() ? SimTime::max() : near_.top().at;
}

EventQueue::Fired EventQueue::pop() {
  settle();
  assert(!near_.empty() && "pop() on empty EventQueue");
  const Node top = near_.top();
  near_.pop();
  return Fired{top.at, slots_.take(top.id).fn};
}

}  // namespace ntier::sim
