#pragma once

#include <cstdint>
#include <cstring>
#include <limits>
#include <random>
#include <vector>

#include "sim/time.h"

namespace ntier::sim {

/// Exactly std::mt19937_64's stream, seeded and twisted only as far as the
/// draws reach. The standard engine seeds all 312 state words (a serial
/// multiply chain) and twists all of them before its first draw; a forked
/// stream that draws a few dozen numbers wastes most of that. This one
/// seeds and twists the first round in blocks of kBlock words on demand,
/// then twists whole rounds as libstdc++ does, so a long-lived stream pays
/// the same per draw. Satisfies UniformRandomBitGenerator, so the standard
/// distributions consume it draw for draw as they would the std engine.
class Mt19937_64 {
 public:
  using result_type = std::uint64_t;
  static constexpr std::size_t kStateSize = 312;

  explicit Mt19937_64(std::uint64_t seed) { x_[0] = seed; }

  /// Copies carry only the words seeded so far (the rest are never read
  /// before they are seeded).
  Mt19937_64(const Mt19937_64& o) { *this = o; }
  Mt19937_64& operator=(const Mt19937_64& o) {
    if (this != &o) {
      std::memcpy(x_, o.x_, o.seeded_ * sizeof(x_[0]));
      seeded_ = o.seeded_;
      ready_ = o.ready_;
      pos_ = o.pos_;
    }
    return *this;
  }

  static constexpr result_type min() { return 0; }
  static constexpr result_type max() {
    return std::numeric_limits<result_type>::max();
  }

  result_type operator()() {
    if (pos_ == ready_) refill();
    result_type z = x_[pos_++];
    z ^= (z >> 29) & 0x5555555555555555ull;
    z ^= (z << 17) & 0x71D67FFFEDA60000ull;
    z ^= (z << 37) & 0xFFF7EEE000000000ull;
    return z ^ (z >> 43);
  }

 private:
  /// Words seeded and twisted per first-round step.
  static constexpr std::size_t kBlock = 32;

  /// Make x_[pos_] drawable: the next first-round block, or a whole round.
  void refill();
  /// Extend the seeding chain to x_[0, upto).
  void seed_to(std::size_t upto);
  /// Twist x_[lo, hi) in place, in index order (libstdc++'s _M_gen_rand
  /// restricted to that range).
  void twist(std::size_t lo, std::size_t hi);

  std::uint64_t x_[kStateSize];  // no initialiser: seed_to writes before reads
  // 16-bit cursors keep the engine the size of std::mt19937_64.
  std::uint16_t seeded_ = 1;  // x_[0, seeded_) hold seeded (or twisted) words
  std::uint16_t ready_ = 0;   // x_[0, ready_) of this round are twisted
  std::uint16_t pos_ = 0;     // next word to draw
};

/// Deterministic random source for the simulator. Every stochastic component
/// takes an Rng (or forks one from a parent) so that a run is fully
/// reproducible from a single seed.
class Rng {
 public:
  explicit Rng(std::uint64_t seed) : engine_(seed) {}

  /// splitmix64 finaliser: a bijective avalanche mix. Used to turn nearby /
  /// weakly mixed 64-bit values (raw engine draws, seed+index pairs) into
  /// well-separated seeds for child streams.
  static std::uint64_t mix64(std::uint64_t x) {
    x += 0x9E3779B97F4A7C15ull;
    x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ull;
    x = (x ^ (x >> 27)) * 0x94D049BB133111EBull;
    return x ^ (x >> 31);
  }

  /// Derive an independent child stream; used to give each client / server /
  /// injector its own stream so component insertion order does not perturb
  /// other components' draws. The raw mt19937_64 draw is mixed through
  /// splitmix64 before seeding: mt19937_64's seeding of its 19937-bit state
  /// from a single word is weak enough that correlated/poorly mixed seed
  /// words give observably correlated child streams. Determinism is
  /// preserved (same parent seed => same children).
  Rng fork() { return Rng(mix64(engine_())); }

  /// Deterministic per-replica seed derivation for multi-seed sweeps:
  /// independent of thread scheduling, collision-resistant across run
  /// indices, and distinct from the base stream itself.
  static std::uint64_t derive_seed(std::uint64_t base_seed,
                                   std::uint64_t index) {
    return mix64(base_seed + 0x632BE59BD9B4E019ull * (index + 1));
  }

  std::uint64_t next_u64() { return engine_(); }

  /// Uniform in [0, 1).
  double uniform01() {
    return std::generate_canonical<double, 53>(engine_);
  }

  /// Uniform in [lo, hi).
  double uniform(double lo, double hi) { return lo + (hi - lo) * uniform01(); }

  /// Uniform integer in [lo, hi] (inclusive).
  std::int64_t uniform_int(std::int64_t lo, std::int64_t hi) {
    return std::uniform_int_distribution<std::int64_t>(lo, hi)(engine_);
  }

  /// Exponential with the given mean (> 0).
  double exponential(double mean) {
    return std::exponential_distribution<double>(1.0 / mean)(engine_);
  }

  /// Exponential inter-arrival / think time as a SimTime.
  SimTime exponential_time(SimTime mean) {
    return SimTime::from_seconds(exponential(mean.to_seconds()));
  }

  /// Log-normal parameterised by the mean and sigma of the *result*
  /// distribution (not of the underlying normal). Used for service-demand
  /// jitter.
  double lognormal_mean(double mean, double cv) {
    const double sigma2 = std::log(1.0 + cv * cv);
    const double mu = std::log(mean) - 0.5 * sigma2;
    return std::lognormal_distribution<double>(mu, std::sqrt(sigma2))(engine_);
  }

  bool bernoulli(double p) { return uniform01() < p; }

  /// Draw an index from a discrete distribution given (unnormalised) weights.
  std::size_t weighted_index(const std::vector<double>& weights);

 private:
  Mt19937_64 engine_;
};

}  // namespace ntier::sim
