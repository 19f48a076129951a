#pragma once

#include <cassert>
#include <cstddef>
#include <utility>
#include <vector>

namespace ntier::sim {

/// Growable FIFO ring buffer: push at the back, pop at the front, O(1)
/// each. Storage is one power-of-two array that doubles when full and
/// never shrinks, so a queue that has reached its high-water depth stops
/// allocating (std::deque allocates and frees a chunk every few hundred
/// elements as the window slides). A popped slot is reset to `T{}`, so
/// captured resources are released at pop time, not at reuse.
template <typename T>
class Ring {
 public:
  void push_back(T value) {
    if (size_ == buf_.size()) grow();
    buf_[(head_ + size_) & (buf_.size() - 1)] = std::move(value);
    ++size_;
  }

  const T& front() const {
    assert(size_ > 0);
    return buf_[head_];
  }

  /// Move the front element out. Precondition: !empty().
  T pop_front() {
    assert(size_ > 0);
    T out = std::move(buf_[head_]);
    buf_[head_] = T{};
    head_ = (head_ + 1) & (buf_.size() - 1);
    --size_;
    return out;
  }

  std::size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }

 private:
  static constexpr std::size_t kMinCapacity = 16;

  void grow() {
    std::vector<T> next(buf_.empty() ? kMinCapacity : buf_.size() * 2);
    for (std::size_t i = 0; i < size_; ++i)
      next[i] = std::move(buf_[(head_ + i) & (buf_.size() - 1)]);
    buf_ = std::move(next);
    head_ = 0;
  }

  std::vector<T> buf_;
  std::size_t head_ = 0;
  std::size_t size_ = 0;
};

}  // namespace ntier::sim
