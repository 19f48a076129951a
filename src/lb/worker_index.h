#pragma once

#include <bit>
#include <cstddef>
#include <cstdint>
#include <iterator>
#include <limits>
#include <vector>

#include "lb/worker_record.h"

namespace ntier::lb {

/// The workers a policy may choose from for one decision: in rotation
/// (breaker closed, mod_jk state Available) and not yet tried for the
/// request. Membership is a bitset in worker-index order; a tournament tree
/// over (lb_value, index) of the members answers mod_jk's "lowest lb_value,
/// first on ties" at its root. size() and lowest_lb_value() are O(1),
/// nth() is O(N/64), iteration visits members in index order.
class EligibleSet {
 public:
  /// Members in ascending worker index.
  class iterator {
   public:
    using iterator_category = std::input_iterator_tag;
    using value_type = int;
    using difference_type = std::ptrdiff_t;
    using pointer = const int*;
    using reference = int;

    iterator(const std::vector<std::uint64_t>& words, std::size_t w)
        : words_(&words), w_(w), bits_(w < words.size() ? words[w] : 0) {
      skip_empty();
    }
    int operator*() const {
      return static_cast<int>(w_ * 64 + static_cast<std::size_t>(
                                            std::countr_zero(bits_)));
    }
    iterator& operator++() {
      bits_ &= bits_ - 1;
      skip_empty();
      return *this;
    }
    iterator operator++(int) {
      iterator old = *this;
      ++*this;
      return old;
    }
    bool operator==(const iterator& o) const {
      return w_ == o.w_ && bits_ == o.bits_;
    }

   private:
    // Advance to the next non-empty word; past the last one, become end().
    void skip_empty() {
      while (bits_ == 0 && w_ + 1 < words_->size()) bits_ = (*words_)[++w_];
      if (bits_ == 0) w_ = words_->size();
    }
    const std::vector<std::uint64_t>* words_;
    std::size_t w_;
    std::uint64_t bits_;
  };

  std::size_t size() const { return count_; }
  bool empty() const { return count_ == 0; }
  bool contains(int i) const {
    const auto u = static_cast<std::size_t>(i);
    return u < num_workers_ && ((words_[u / 64] >> (u % 64)) & 1U) != 0;
  }
  /// The k-th member in index order; requires k < size().
  int nth(std::size_t k) const {
    for (std::size_t w = 0;; ++w) {
      std::uint64_t bits = words_[w];
      const auto c = static_cast<std::size_t>(std::popcount(bits));
      if (k >= c) {
        k -= c;
        continue;
      }
      // Select the k-th set bit of `bits` by halving.
      std::size_t pos = 0;
      for (int width = 32; width > 0; width /= 2) {
        const std::uint64_t low = bits & ((std::uint64_t{1} << width) - 1);
        const auto lc = static_cast<std::size_t>(std::popcount(low));
        if (k >= lc) {
          k -= lc;
          bits >>= width;
          pos += static_cast<std::size_t>(width);
        } else {
          bits = low;
        }
      }
      return static_cast<int>(w * 64 + pos);
    }
  }
  /// mod_jk's choice: the member with the lowest lb_value, the lowest index
  /// on ties (a strict-< scan in index order); -1 when empty.
  int lowest_lb_value() const { return count_ == 0 ? -1 : tree_[1]; }

  iterator begin() const { return iterator(words_, 0); }
  iterator end() const { return iterator(words_, words_.size()); }

 protected:
  /// The winner of a match between the winners of two sibling subtrees.
  /// Every index on the left is lower than every index on the right, so
  /// keeping the left one on equal keys makes each node the lowest index
  /// among the minimum keys below it: the root is exactly the strict-<
  /// scan's first minimum. The empty leaf `num_workers_` (key +inf, the
  /// highest index) loses even to a member whose lb_value is +inf.
  int better(int l, int r) const {
    const double kl = keys_[static_cast<std::size_t>(l)];
    const double kr = keys_[static_cast<std::size_t>(r)];
    return kr < kl || (kr == kl && r < l) ? r : l;
  }

  std::size_t num_workers_ = 0;
  std::size_t count_ = 0;
  std::vector<std::uint64_t> words_;
  /// lb_value of each member as of its last touch; the extra last entry is
  /// the empty leaf's +inf.
  std::vector<double> keys_;
  std::size_t leaves_ = 1;  // power of two >= num_workers_
  /// Heap layout (root 1, leaf i at leaves_ + i): the winning worker below
  /// each node, num_workers_ for none.
  std::vector<int> tree_;
};

/// Keeps an EligibleSet in step with one balancer's WorkerRecords. The
/// owner's invariant: every write to records[i].state, .breaker_open or
/// .lb_value is followed by touch(i).
class WorkerIndex final : public EligibleSet {
 public:
  /// Every worker starts as in_rotation() says. `records` must outlive the
  /// index and keep its size.
  explicit WorkerIndex(const std::vector<WorkerRecord>& records)
      : records_(&records) {
    num_workers_ = records.size();
    const int none = static_cast<int>(num_workers_);
    words_.assign((num_workers_ + 63) / 64, 0);
    keys_.assign(num_workers_ + 1, std::numeric_limits<double>::infinity());
    while (leaves_ < num_workers_) leaves_ *= 2;
    tree_.assign(2 * leaves_, none);
    for (std::size_t i = 0; i < num_workers_; ++i) {
      if (!in_rotation(records[i])) continue;
      words_[i / 64] |= std::uint64_t{1} << (i % 64);
      ++count_;
      keys_[i] = records[i].lb_value;
      tree_[leaves_ + i] = static_cast<int>(i);
    }
    for (std::size_t p = leaves_ - 1; p >= 1; --p)
      tree_[p] = better(tree_[2 * p], tree_[2 * p + 1]);
  }

  static bool in_rotation(const WorkerRecord& r) {
    return !r.breaker_open && r.state == WorkerState::kAvailable;
  }

  /// records[i] changed: recompute its membership and tree leaf.
  void touch(int i) {
    set(i, in_rotation((*records_)[static_cast<std::size_t>(i)]));
  }

  /// Set membership regardless of the record (the balancer masks a
  /// request's tried workers for one decision, then touch()es them back).
  void set(int i, bool member) {
    const auto u = static_cast<std::size_t>(i);
    const std::uint64_t bit = std::uint64_t{1} << (u % 64);
    std::uint64_t& word = words_[u / 64];
    const bool was = (word & bit) != 0;
    if (member != was) {
      word ^= bit;
      if (member)
        ++count_;
      else
        --count_;
    } else if (!member || keys_[u] == (*records_)[u].lb_value) {
      return;  // the leaf is unchanged
    }
    if (member) keys_[u] = (*records_)[u].lb_value;
    std::size_t p = leaves_ + u;
    tree_[p] = member ? i : static_cast<int>(num_workers_);
    // Replay the matches up to the root. Once a node's winner is unchanged
    // and is not i, whose key may have moved, nothing above it changes.
    for (p /= 2; p >= 1; p /= 2) {
      const int winner = better(tree_[2 * p], tree_[2 * p + 1]);
      if (winner == tree_[p] && winner != i) return;
      tree_[p] = winner;
    }
  }

  /// Word w of the workers that are NOT members (bits past the last worker
  /// stay clear).
  std::uint64_t outside(std::size_t w) const {
    const std::size_t tail = num_workers_ - w * 64;
    const std::uint64_t valid =
        tail >= 64 ? ~std::uint64_t{0} : (std::uint64_t{1} << tail) - 1;
    return ~words_[w] & valid;
  }
  std::size_t num_words() const { return words_.size(); }

 private:
  const std::vector<WorkerRecord>* records_;
};

}  // namespace ntier::lb
