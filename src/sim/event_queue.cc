#include "sim/event_queue.h"

#include <cassert>
#include <utility>

namespace ntier::sim {

EventId EventQueue::push(SimTime at, Callback<void()> fn) {
  const EventId id = slots_.insert(std::move(fn));
  heap_.push(Node{at, ++scheduled_, id});
  return id;
}

void EventQueue::prune_top() const {
  while (!heap_.empty() && !slots_.contains(heap_.top().id)) heap_.pop();
}

SimTime EventQueue::next_time() const {
  prune_top();
  if (heap_.empty()) return SimTime::max();
  return heap_.top().at;
}

EventQueue::Fired EventQueue::pop() {
  prune_top();
  assert(!heap_.empty() && "pop() on empty EventQueue");
  const Node top = heap_.top();
  heap_.pop();
  return Fired{top.at, slots_.take(top.id)};
}

}  // namespace ntier::sim
