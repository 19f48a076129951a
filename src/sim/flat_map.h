#pragma once

#include <cassert>
#include <cstdint>
#include <vector>

#include "sim/rng.h"

namespace ntier::sim {

/// Open-addressing hash map from 64-bit keys to 64-bit values (slot
/// indices, SlotTable handles). Linear probing over a power-of-two bucket
/// array kept at most half full; erase shifts the probe run back instead
/// of leaving tombstones. The array doubles when needed and never shrinks,
/// so a map that has seen its high-water size allocates nothing more —
/// unlike std::unordered_map, which allocates a node per insert.
///
/// The map exposes no iteration, so nothing can depend on bucket order.
/// The value ~0 is reserved (it marks an empty bucket).
class FlatMap {
 public:
  static constexpr std::uint64_t kEmpty = ~std::uint64_t{0};

  /// The value stored under `key`, or null.
  std::uint64_t* find(std::uint64_t key) {
    if (buckets_.empty()) return nullptr;
    Bucket& b = buckets_[probe(key)];
    return b.value == kEmpty ? nullptr : &b.value;
  }
  const std::uint64_t* find(std::uint64_t key) const {
    return const_cast<FlatMap*>(this)->find(key);
  }

  /// Store `value` under `key`, which must not be present.
  void insert(std::uint64_t key, std::uint64_t value) {
    assert(value != kEmpty && find(key) == nullptr);
    if (2 * (size_ + 1) > buckets_.size()) grow();
    buckets_[probe(key)] = Bucket{key, value};
    ++size_;
  }

  /// Remove `key`; false when it was absent.
  bool erase(std::uint64_t key) {
    if (buckets_.empty()) return false;
    const std::size_t mask = buckets_.size() - 1;
    std::size_t hole = probe(key);
    if (buckets_[hole].value == kEmpty) return false;
    for (std::size_t i = (hole + 1) & mask; buckets_[i].value != kEmpty;
         i = (i + 1) & mask) {
      // Move bucket i into the hole unless its home lies cyclically in
      // (hole, i], where the hole does not break its probe run.
      const std::size_t home = Rng::mix64(buckets_[i].key) & mask;
      if (((i - home) & mask) >= ((i - hole) & mask)) {
        buckets_[hole] = buckets_[i];
        hole = i;
      }
    }
    buckets_[hole].value = kEmpty;
    --size_;
    return true;
  }

  std::size_t size() const { return size_; }

 private:
  struct Bucket {
    std::uint64_t key = 0;
    std::uint64_t value = kEmpty;
  };

  /// The bucket holding `key`, or the empty bucket ending its probe run.
  std::size_t probe(std::uint64_t key) const {
    const std::size_t mask = buckets_.size() - 1;
    std::size_t i = Rng::mix64(key) & mask;
    while (buckets_[i].value != kEmpty && buckets_[i].key != key)
      i = (i + 1) & mask;
    return i;
  }

  void grow() {
    std::vector<Bucket> old(buckets_.empty() ? 16 : buckets_.size() * 2);
    old.swap(buckets_);
    for (const Bucket& b : old)
      if (b.value != kEmpty) buckets_[probe(b.key)] = b;
  }

  std::vector<Bucket> buckets_;
  std::size_t size_ = 0;
};

}  // namespace ntier::sim
