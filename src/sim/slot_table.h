#pragma once

#include <cassert>
#include <cstdint>
#include <utility>
#include <vector>

namespace ntier::sim {

/// Generation-tagged slot table: stable 64-bit handles to records of type
/// T, O(1) insert / lookup / erase, and no allocation once the table has
/// grown to its high-water mark (freed slots are recycled LIFO).
///
/// A handle encodes (generation << 32 | slot). Erasing a record bumps its
/// slot's generation, so a stale handle held by a late event, a timer or a
/// response never resolves — even after the slot is reused — and the
/// holder sees `find() == nullptr` instead of someone else's record.
/// Generations start at 1, so no valid handle is ever 0. A slot's
/// generation only grows (32-bit: wraps after 4G reuses of one slot, far
/// beyond any run).
///
/// This is the state side of the flattened continuations: a component keeps
/// its per-request records here and its callbacks capture only
/// `{this, handle}`.
template <typename T>
class SlotTable {
 public:
  using Handle = std::uint64_t;

  /// Store `value`; returns its handle.
  Handle insert(T value) {
    std::uint32_t slot;
    if (free_.empty()) {
      slot = static_cast<std::uint32_t>(slots_.size());
      slots_.emplace_back();
    } else {
      slot = free_.back();
      free_.pop_back();
    }
    Slot& s = slots_[slot];
    s.value = std::move(value);
    s.live = true;
    ++live_;
    return make_handle(slot, s.gen);
  }

  /// The record behind `h`, or null when `h` is stale or was never issued.
  T* find(Handle h) {
    const std::uint32_t slot = slot_of(h);
    if (slot >= slots_.size()) return nullptr;
    Slot& s = slots_[slot];
    return s.live && s.gen == gen_of(h) ? &s.value : nullptr;
  }
  bool contains(Handle h) const {
    const std::uint32_t slot = slot_of(h);
    return slot < slots_.size() && slots_[slot].live &&
           slots_[slot].gen == gen_of(h);
  }

  /// The record behind a handle the caller knows is live.
  T& operator[](Handle h) {
    assert(contains(h));
    return slots_[slot_of(h)].value;
  }

  /// Move the record out and free its slot. Precondition: contains(h).
  T take(Handle h) {
    assert(contains(h));
    Slot& s = slots_[slot_of(h)];
    T out = std::move(s.value);
    release(s, slot_of(h));
    return out;
  }

  /// Destroy the record and free its slot; false when `h` is stale.
  bool erase(Handle h) {
    if (!contains(h)) return false;
    release(slots_[slot_of(h)], slot_of(h));
    return true;
  }

  /// Live records.
  std::size_t size() const { return live_; }
  bool empty() const { return live_ == 0; }
  /// Slots ever allocated (the table's high-water mark).
  std::size_t slot_count() const { return slots_.size(); }

  /// The slot a handle names, in [0, slot_count()): lets a component keep
  /// per-record side data in a flat array indexed by slot.
  static std::uint32_t slot_of(Handle h) { return static_cast<std::uint32_t>(h); }

  /// The live record in `slot`, and its current handle: for intrusive
  /// structures that link records by slot index rather than by handle.
  T& at_slot(std::uint32_t slot) {
    assert(slot < slots_.size() && slots_[slot].live);
    return slots_[slot].value;
  }
  Handle handle_at(std::uint32_t slot) const {
    assert(slot < slots_.size() && slots_[slot].live);
    return make_handle(slot, slots_[slot].gen);
  }

 private:
  static std::uint32_t gen_of(Handle h) {
    return static_cast<std::uint32_t>(h >> 32);
  }
  static Handle make_handle(std::uint32_t slot, std::uint32_t gen) {
    return (static_cast<Handle>(gen) << 32) | slot;
  }

  struct Slot {
    T value{};
    std::uint32_t gen = 1;
    bool live = false;
  };

  void release(Slot& s, std::uint32_t slot) {
    s.value = T{};  // drop captured resources now, not at reuse
    s.live = false;
    ++s.gen;
    free_.push_back(slot);
    --live_;
  }

  std::vector<Slot> slots_;
  std::vector<std::uint32_t> free_;
  std::size_t live_ = 0;
};

/// Array-backed 4-ary min-heap of small POD nodes, ordered by `Before`
/// (a strict weak order that must be total, e.g. ending in a sequence
/// number, so equal keys pop deterministically). It keeps no position
/// index, so nothing can be removed from the middle: the event queue and the
/// PS CPU keep their payloads in a SlotTable, and a cancelled entry stays in
/// the heap until it surfaces at the top.
template <typename Node, typename Before>
class QuadHeap {
 public:
  void push(const Node& n) {
    nodes_.push_back(n);
    sift_up(nodes_.size() - 1);
  }
  /// Bulk load: append nodes in any order, then heapify() once. O(n) for
  /// the batch, against O(n log n) for pushes that arrive out of order.
  void append(const Node& n) { nodes_.push_back(n); }
  void heapify() {
    if (nodes_.size() < 2) return;
    for (std::size_t i = (nodes_.size() - 2) / kArity + 1; i-- > 0;) sift_down(i);
  }
  const Node& top() const { return nodes_.front(); }
  void pop() {
    nodes_.front() = nodes_.back();
    nodes_.pop_back();
    if (!nodes_.empty()) sift_down(0);
  }
  bool empty() const { return nodes_.empty(); }

 private:
  static constexpr std::size_t kArity = 4;

  void sift_up(std::size_t i) {
    const Node node = nodes_[i];
    while (i > 0) {
      const std::size_t parent = (i - 1) / kArity;
      if (!Before{}(node, nodes_[parent])) break;
      nodes_[i] = nodes_[parent];
      i = parent;
    }
    nodes_[i] = node;
  }

  void sift_down(std::size_t i) {
    const std::size_t n = nodes_.size();
    const Node node = nodes_[i];
    while (true) {
      const std::size_t first = kArity * i + 1;
      if (first >= n) break;
      std::size_t best = first;
      const std::size_t last = first + kArity < n ? first + kArity : n;
      for (std::size_t c = first + 1; c < last; ++c)
        if (Before{}(nodes_[c], nodes_[best])) best = c;
      if (!Before{}(nodes_[best], node)) break;
      nodes_[i] = nodes_[best];
      i = best;
    }
    nodes_[i] = node;
  }

  std::vector<Node> nodes_;
};

}  // namespace ntier::sim
