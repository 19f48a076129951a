#include "sim/callback.h"

#include <gtest/gtest.h>

#include <array>
#include <functional>
#include <memory>
#include <string>
#include <utility>

namespace ntier::sim {
namespace {

/// Counts destructions of the one instance that owns the state; moved-from
/// copies give up ownership and count nothing.
class Owner {
 public:
  explicit Owner(int* destroyed) : destroyed_(destroyed) {}
  Owner(Owner&& o) noexcept : destroyed_(std::exchange(o.destroyed_, nullptr)) {}
  Owner& operator=(Owner&&) = delete;
  ~Owner() {
    if (destroyed_) ++*destroyed_;
  }

 private:
  int* destroyed_;
};

TEST(Callback, MoveTransfersOwnershipAndEmptiesSource) {
  int calls = 0;
  Callback<void()> a = [&calls] { ++calls; };
  ASSERT_TRUE(a);
  Callback<void()> b = std::move(a);
  EXPECT_FALSE(a);  // NOLINT(bugprone-use-after-move): checking the contract
  ASSERT_TRUE(b);
  b();
  EXPECT_EQ(calls, 1);

  Callback<void()> c;
  c = std::move(b);
  EXPECT_FALSE(b);  // NOLINT(bugprone-use-after-move)
  c();
  EXPECT_EQ(calls, 2);
}

TEST(Callback, InlineCaptureDestroyedExactlyOnceAcrossMoves) {
  int destroyed = 0;
  {
    Callback<int()> a = [o = Owner(&destroyed)] { return 7; };
    Callback<int()> b = std::move(a);
    Callback<int()> c;
    c = std::move(b);
    EXPECT_EQ(c(), 7);
    EXPECT_EQ(destroyed, 0);
  }
  EXPECT_EQ(destroyed, 1);
}

TEST(Callback, HeapFallbackCaptureDestroyedExactlyOnceAcrossMoves) {
  int destroyed = 0;
  {
    std::array<std::uint64_t, 4> big{1, 2, 3, 4};  // 32 B: past the buffer
    auto fn = [o = Owner(&destroyed), big] { return big[3]; };
    static_assert(sizeof(fn) > Callback<void()>::kInlineSize);
    Callback<std::uint64_t()> a = std::move(fn);
    Callback<std::uint64_t()> b = std::move(a);
    Callback<std::uint64_t()> c;
    c = std::move(b);
    EXPECT_EQ(c(), 4u);
    EXPECT_EQ(destroyed, 0);
    c = nullptr;  // reset destroys the target
    EXPECT_EQ(destroyed, 1);
    EXPECT_FALSE(c);
  }
  EXPECT_EQ(destroyed, 1);
}

TEST(Callback, AssigningOverALiveTargetDestroysIt) {
  int destroyed = 0;
  Callback<void()> a = [o = Owner(&destroyed)] {};
  a = [] {};
  EXPECT_EQ(destroyed, 1);
  EXPECT_TRUE(a);
}

TEST(Callback, ConstCallInvokesMutableLambda) {
  const Callback<int()> counter = [n = 0]() mutable { return ++n; };
  EXPECT_EQ(counter(), 1);
  EXPECT_EQ(counter(), 2);
}

TEST(Callback, EmptyAndNullptrStates) {
  Callback<void(int)> a;
  EXPECT_FALSE(a);
  Callback<void(int)> b = nullptr;
  EXPECT_FALSE(b);
  Callback<void(int)> c = [](int) {};
  EXPECT_TRUE(c);
  c = nullptr;
  EXPECT_FALSE(c);
  void (*null_fn)(int) = nullptr;
  Callback<void(int)> d = null_fn;
  EXPECT_FALSE(d);
  Callback<void(int)> e = std::move(a);  // moving an empty one stays empty
  EXPECT_FALSE(e);
}

TEST(Callback, ConstructsFromStdFunction) {
  int seen = 0;
  std::function<void(int)> f = [&seen](int v) { seen = v; };
  Callback<void(int)> a = f;  // copies the std::function
  a(5);
  EXPECT_EQ(seen, 5);
  f(6);  // the original stays usable
  EXPECT_EQ(seen, 6);

  Callback<void(int)> b = std::function<void(int)>{};
  EXPECT_FALSE(b);  // an empty std::function gives an empty Callback
}

TEST(Callback, VoidSignatureDiscardsTheTargetsResult) {
  int calls = 0;
  Callback<void()> f = [&calls] { return ++calls; };
  f();
  EXPECT_EQ(calls, 1);
}

TEST(Callback, HoldsMoveOnlyCapturesAndForwardsArguments) {
  auto p = std::make_unique<int>(40);
  Callback<int(const std::string&, int&&)> f =
      [p = std::move(p)](const std::string& s, int&& v) {
        return *p + static_cast<int>(s.size()) + v;
      };
  EXPECT_EQ(f("ab", 0), 42);
}

}  // namespace
}  // namespace ntier::sim
