// The allocation-free containers under the request path: sim::FlatMap
// (open addressing with backward-shift erase) checked against
// std::unordered_map under random operations, and sim::Ring's FIFO order
// across growth and wrap-around.
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <unordered_map>

#include "sim/flat_map.h"
#include "sim/ring.h"
#include "sim/rng.h"

namespace ntier::sim {
namespace {

TEST(FlatMap, MatchesUnorderedMapUnderRandomOps) {
  FlatMap map;
  std::unordered_map<std::uint64_t, std::uint64_t> ref;
  Rng rng(11);
  for (int step = 0; step < 200'000; ++step) {
    // A small key range forces long probe runs, collisions and erases
    // from the middle of runs.
    const auto key = static_cast<std::uint64_t>(rng.uniform_int(0, 700));
    switch (rng.uniform_int(0, 2)) {
      case 0:
        if (ref.count(key) == 0) {
          map.insert(key, static_cast<std::uint64_t>(step));
          ref[key] = static_cast<std::uint64_t>(step);
        }
        break;
      case 1:
        EXPECT_EQ(map.erase(key), ref.erase(key) == 1);
        break;
      default: {
        const std::uint64_t* v = map.find(key);
        const auto it = ref.find(key);
        ASSERT_EQ(v != nullptr, it != ref.end()) << "key " << key;
        if (v) {
          EXPECT_EQ(*v, it->second);
        }
      }
    }
    ASSERT_EQ(map.size(), ref.size());
  }
  for (const auto& [k, v] : ref) {
    const std::uint64_t* found = map.find(k);
    ASSERT_NE(found, nullptr);
    EXPECT_EQ(*found, v);
  }
}

TEST(FlatMap, ValuesAreMutableInPlace) {
  FlatMap map;
  EXPECT_EQ(map.find(3), nullptr);
  EXPECT_FALSE(map.erase(3));
  map.insert(3, 30);
  *map.find(3) = 31;
  EXPECT_EQ(*map.find(3), 31u);
  EXPECT_TRUE(map.erase(3));
  EXPECT_EQ(map.size(), 0u);
}

TEST(Ring, KeepsFifoOrderAcrossGrowthAndWrapAround) {
  Ring<int> ring;
  int next_in = 0, next_out = 0;
  // Interleave pushes and pops so the head wraps before every growth.
  for (int round = 0; round < 50; ++round) {
    for (int i = 0; i < round + 3; ++i) ring.push_back(next_in++);
    for (int i = 0; i < round / 2 + 1 && !ring.empty(); ++i)
      EXPECT_EQ(ring.pop_front(), next_out++);
  }
  EXPECT_EQ(ring.size(), static_cast<std::size_t>(next_in - next_out));
  EXPECT_EQ(ring.front(), next_out);
  while (!ring.empty()) EXPECT_EQ(ring.pop_front(), next_out++);
  EXPECT_EQ(next_out, next_in);
}

TEST(Ring, PopReleasesTheSlotAtOnce) {
  Ring<std::shared_ptr<int>> ring;
  auto value = std::make_shared<int>(4);
  ring.push_back(value);
  EXPECT_EQ(value.use_count(), 2);
  const auto out = ring.pop_front();
  EXPECT_EQ(*out, 4);
  EXPECT_EQ(value.use_count(), 2);  // `out` and `value`; the slot let go
}

}  // namespace
}  // namespace ntier::sim
