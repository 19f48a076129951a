#include "sim/rng.h"

#include <algorithm>
#include <stdexcept>

namespace ntier::sim {

std::size_t Rng::weighted_index(const std::vector<double>& weights) {
  if (weights.empty()) throw std::invalid_argument("weighted_index: empty weights");
  double total = 0;
  for (double w : weights) total += w;
  if (total <= 0) throw std::invalid_argument("weighted_index: non-positive total weight");
  double x = uniform01() * total;
  for (std::size_t i = 0; i < weights.size(); ++i) {
    x -= weights[i];
    if (x < 0) return i;
  }
  return weights.size() - 1;  // floating-point edge
}

namespace {

constexpr std::size_t kN = Mt19937_64::kStateSize;
constexpr std::size_t kM = 156;
constexpr std::uint64_t kMatrixA = 0xB5026F5AA96619E9ull;
constexpr std::uint64_t kUpperMask = ~std::uint64_t{0} << 31;
constexpr std::uint64_t kLowerMask = ~kUpperMask;

inline std::uint64_t twisted(std::uint64_t hi_word, std::uint64_t lo_word,
                             std::uint64_t far_word) {
  const std::uint64_t y = (hi_word & kUpperMask) | (lo_word & kLowerMask);
  return far_word ^ (y >> 1) ^ ((y & 1) ? kMatrixA : 0);
}

}  // namespace

void Mt19937_64::seed_to(std::size_t upto) {
  for (std::size_t i = seeded_; i < upto; ++i)
    x_[i] = 6364136223846793005ull * (x_[i - 1] ^ (x_[i - 1] >> 62)) + i;
  seeded_ = static_cast<std::uint16_t>(upto);
}

void Mt19937_64::twist(std::size_t lo, std::size_t hi) {
  // Words below kN - kM read the old word kM ahead; the rest read the new
  // word kN - kM behind, and the last wraps to the new x_[0].
  std::size_t k = lo;
  for (; k < std::min(hi, kN - kM); ++k)
    x_[k] = twisted(x_[k], x_[k + 1], x_[k + kM]);
  for (; k < std::min(hi, kN - 1); ++k)
    x_[k] = twisted(x_[k], x_[k + 1], x_[k + kM - kN]);
  if (k < hi) x_[kN - 1] = twisted(x_[kN - 1], x_[0], x_[kM - 1]);
}

void Mt19937_64::refill() {
  if (ready_ < kN) {
    // First round: twisting word k < kN - kM reads old words k + 1 and
    // k + kM, so the seeding chain runs kM words ahead of the block.
    const std::size_t hi = std::min(kN, ready_ + kBlock);
    seed_to(std::min(kN, hi + kM));
    twist(ready_, hi);
    ready_ = static_cast<std::uint16_t>(hi);
  } else {
    twist(0, kN);
    pos_ = 0;
  }
}

}  // namespace ntier::sim
