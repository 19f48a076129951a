#pragma once

#include <array>
#include <cstdint>
#include <optional>
#include <utility>

#include "sim/ring.h"
#include "sim/time.h"

namespace ntier::net {

/// Why an item left a BoundedQueue without being served. kOverflow is
/// counted by the queue itself on a failed push (a dropped SYN); the other
/// reasons are consumer-attributed via count_drop() when the overload layer
/// sheds an item it popped (CoDel sojourn drop, expired deadline).
enum class DropReason : std::uint8_t {
  kOverflow = 0,
  kSojourn,
  kDeadline,
};
inline constexpr std::size_t kNumDropReasons = 3;

/// Bounded FIFO with drop accounting — the listen/accept backlog of a
/// server. Items sit in a growable ring (T must be default-constructible),
/// so a backlog that has once been full allocates nothing more. Overflow (try_push returning false) models a dropped SYN.
/// Every entry carries its enqueue time so consumers can measure sojourn
/// (the CoDel signal) and drops are attributed per reason.
template <typename T>
class BoundedQueue {
 public:
  explicit BoundedQueue(std::size_t capacity) : capacity_(capacity) {}

  /// False (and counts an overflow drop) when the queue is full.
  bool try_push(T item, sim::SimTime now = sim::SimTime::zero()) {
    if (items_.size() >= capacity_) {
      ++drops_[static_cast<std::size_t>(DropReason::kOverflow)];
      return false;
    }
    items_.push_back({std::move(item), now});
    return true;
  }

  std::optional<T> try_pop() {
    if (items_.empty()) return std::nullopt;
    return std::move(items_.pop_front().first);
  }

  /// Pop together with the entry's enqueue time (sojourn = now - enqueued).
  std::optional<std::pair<T, sim::SimTime>> try_pop_timed() {
    if (items_.empty()) return std::nullopt;
    return items_.pop_front();
  }

  /// Enqueue time of the head entry (the next pop). Queue must be non-empty.
  sim::SimTime front_enqueued() const { return items_.front().second; }

  /// Attribute a consumer-side shed (an item popped and then dropped by the
  /// overload layer rather than served) to this queue's accounting.
  void count_drop(DropReason reason) {
    ++drops_[static_cast<std::size_t>(reason)];
  }

  std::size_t size() const { return items_.size(); }
  std::size_t capacity() const { return capacity_; }
  bool empty() const { return items_.empty(); }
  bool full() const { return items_.size() >= capacity_; }
  /// Total drops across all reasons (overflow-only in the seed behaviour).
  std::uint64_t drops() const {
    std::uint64_t total = 0;
    for (auto d : drops_) total += d;
    return total;
  }
  std::uint64_t drops(DropReason reason) const {
    return drops_[static_cast<std::size_t>(reason)];
  }

 private:
  std::size_t capacity_;
  sim::Ring<std::pair<T, sim::SimTime>> items_;
  std::array<std::uint64_t, kNumDropReasons> drops_{};
};

}  // namespace ntier::net
