#include "sim/rng.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <numeric>
#include <random>
#include <vector>

namespace ntier::sim {
namespace {

TEST(Rng, DeterministicForSeed) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(Rng, ForkProducesIndependentStream) {
  Rng a(123);
  Rng child = a.fork();
  // The child stream must not replay the parent stream.
  Rng fresh(123);
  fresh.next_u64();  // consume the draw used to seed the child
  bool all_equal = true;
  for (int i = 0; i < 10; ++i)
    if (child.next_u64() != fresh.next_u64()) all_equal = false;
  EXPECT_FALSE(all_equal);
}

TEST(Rng, ForkIsDeterministicForParentSeed) {
  Rng a(77), b(77);
  Rng ca = a.fork(), cb = b.fork();
  for (int i = 0; i < 100; ++i) EXPECT_EQ(ca.next_u64(), cb.next_u64());
  // And the second fork differs from the first.
  Rng ca2 = a.fork();
  bool differs = false;
  Rng ca_replay(77);
  (void)ca_replay;
  for (int i = 0; i < 10; ++i)
    if (ca2.next_u64() != cb.next_u64()) differs = true;
  EXPECT_TRUE(differs);
}

TEST(Rng, ForkSeedsAreMixed) {
  // The child seed must pass through splitmix64, not be the raw engine
  // draw: child(seed) != Rng(raw_draw) but == Rng(mix64(raw_draw)).
  Rng parent(123);
  Rng probe(123);
  const std::uint64_t raw = probe.next_u64();
  Rng child = parent.fork();
  Rng mixed(Rng::mix64(raw));
  for (int i = 0; i < 50; ++i) EXPECT_EQ(child.next_u64(), mixed.next_u64());
  Rng unmixed(raw);
  bool all_equal = true;
  Rng child2 = Rng(Rng::mix64(raw));
  for (int i = 0; i < 10; ++i)
    if (child2.next_u64() != unmixed.next_u64()) all_equal = false;
  EXPECT_FALSE(all_equal);
}

TEST(Rng, DeriveSeedIsDeterministicAndCollisionFree) {
  std::vector<std::uint64_t> seeds;
  for (std::uint64_t i = 0; i < 1000; ++i) {
    seeds.push_back(Rng::derive_seed(42, i));
    EXPECT_EQ(seeds.back(), Rng::derive_seed(42, i));  // pure function
  }
  std::sort(seeds.begin(), seeds.end());
  EXPECT_EQ(std::adjacent_find(seeds.begin(), seeds.end()), seeds.end());
  // Different base seeds land elsewhere.
  EXPECT_NE(Rng::derive_seed(42, 0), Rng::derive_seed(43, 0));
}

TEST(Rng, Uniform01InRange) {
  Rng r(1);
  for (int i = 0; i < 10'000; ++i) {
    const double x = r.uniform01();
    EXPECT_GE(x, 0.0);
    EXPECT_LT(x, 1.0);
  }
}

TEST(Rng, UniformIntCoversRangeInclusive) {
  Rng r(2);
  bool saw_lo = false, saw_hi = false;
  for (int i = 0; i < 10'000; ++i) {
    const auto x = r.uniform_int(3, 7);
    EXPECT_GE(x, 3);
    EXPECT_LE(x, 7);
    saw_lo |= (x == 3);
    saw_hi |= (x == 7);
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(Rng, ExponentialHasRequestedMean) {
  Rng r(3);
  double sum = 0;
  const int n = 200'000;
  for (int i = 0; i < n; ++i) sum += r.exponential(2.5);
  EXPECT_NEAR(sum / n, 2.5, 0.05);
}

TEST(Rng, ExponentialTimeMatchesMean) {
  Rng r(4);
  double sum = 0;
  const int n = 100'000;
  for (int i = 0; i < n; ++i)
    sum += r.exponential_time(SimTime::millis(10)).to_millis();
  EXPECT_NEAR(sum / n, 10.0, 0.3);
}

TEST(Rng, LognormalMeanAndSpread) {
  Rng r(5);
  const int n = 200'000;
  double sum = 0, sq = 0;
  for (int i = 0; i < n; ++i) {
    const double x = r.lognormal_mean(4.0, 0.5);
    sum += x;
    sq += x * x;
  }
  const double mean = sum / n;
  const double var = sq / n - mean * mean;
  EXPECT_NEAR(mean, 4.0, 0.08);
  EXPECT_NEAR(std::sqrt(var) / mean, 0.5, 0.03);  // cv as requested
}

TEST(Rng, BernoulliFrequency) {
  Rng r(6);
  int hits = 0;
  const int n = 100'000;
  for (int i = 0; i < n; ++i) hits += r.bernoulli(0.3) ? 1 : 0;
  EXPECT_NEAR(static_cast<double>(hits) / n, 0.3, 0.01);
}

TEST(Rng, WeightedIndexMatchesWeights) {
  Rng r(7);
  std::vector<double> w = {1.0, 3.0, 6.0};
  std::vector<int> counts(3, 0);
  const int n = 100'000;
  for (int i = 0; i < n; ++i) ++counts[r.weighted_index(w)];
  EXPECT_NEAR(counts[0] / static_cast<double>(n), 0.1, 0.01);
  EXPECT_NEAR(counts[1] / static_cast<double>(n), 0.3, 0.01);
  EXPECT_NEAR(counts[2] / static_cast<double>(n), 0.6, 0.01);
}

TEST(Rng, WeightedIndexRejectsBadInput) {
  Rng r(8);
  EXPECT_THROW(r.weighted_index({}), std::invalid_argument);
  EXPECT_THROW(r.weighted_index({0.0, 0.0}), std::invalid_argument);
}

// Draw counts that end just before, on and just after the engine's block
// edges (32 words), the old/new split of the twist (156), the first round's
// end (312) and the second round's end (624).
constexpr int kDrawCounts[] = {1,   31,  32,  33,  155, 156, 157,
                               311, 312, 313, 624, 625, 5000};

static_assert(sizeof(Mt19937_64) <= sizeof(std::mt19937_64));

TEST(Mt19937_64, MatchesStdEngineDrawForDraw) {
  for (std::uint64_t s = 0; s < 1000; ++s) {
    const std::uint64_t seed = Rng::mix64(s);
    for (int n : kDrawCounts) {
      Mt19937_64 mine(seed);
      std::mt19937_64 ref(seed);
      for (int i = 0; i < n; ++i) ASSERT_EQ(mine(), ref()) << seed << " " << i;
    }
  }
}

TEST(Mt19937_64, CopyTakenMidStreamContinuesTheStream) {
  for (std::uint64_t seed = 1; seed <= 50; ++seed) {
    for (int n : kDrawCounts) {
      Mt19937_64 mine(seed);
      std::mt19937_64 ref(seed);
      for (int i = 0; i < n; ++i) mine(), ref();
      Mt19937_64 copy = mine;
      Mt19937_64 assigned(0);
      assigned = mine;
      std::mt19937_64 ref_copy = ref;
      for (int i = 0; i < 700; ++i) {
        const auto want = ref_copy();
        ASSERT_EQ(copy(), want) << seed << " " << n << " " << i;
        ASSERT_EQ(assigned(), want) << seed << " " << n << " " << i;
        ASSERT_EQ(mine(), ref()) << seed << " " << n << " " << i;
      }
    }
  }
}

TEST(Mt19937_64, DistributionsDrawTheSameValues) {
  // Rng's distributions run on the engine; the same calls on a std engine
  // seeded alike must give bit-identical results.
  for (std::uint64_t seed = 0; seed < 1000; ++seed) {
    Rng rng(seed);
    std::mt19937_64 ref(seed);
    for (int i = 0; i < 200; ++i) {
      ASSERT_EQ(rng.uniform_int(-3, 1'000'003),
                std::uniform_int_distribution<std::int64_t>(-3, 1'000'003)(ref));
      ASSERT_EQ(rng.exponential(2.5),
                std::exponential_distribution<double>(1.0 / 2.5)(ref));
      const double sigma2 = std::log(1.0 + 0.5 * 0.5);
      ASSERT_EQ(rng.lognormal_mean(4.0, 0.5),
                std::lognormal_distribution<double>(
                    std::log(4.0) - 0.5 * sigma2, std::sqrt(sigma2))(ref));
      ASSERT_EQ(rng.uniform01(), (std::generate_canonical<double, 53>(ref)));
    }
  }
}

TEST(Mt19937_64, ForkDrawsTheStdEngineStream) {
  Rng parent(99);
  std::mt19937_64 ref_parent(99);
  for (int k = 0; k < 100; ++k) {
    Rng child = parent.fork();
    std::mt19937_64 ref_child(Rng::mix64(ref_parent()));
    for (int i = 0; i < 50; ++i) ASSERT_EQ(child.next_u64(), ref_child());
  }
}

}  // namespace
}  // namespace ntier::sim
