#pragma once

#include <cassert>
#include <cstddef>
#include <cstring>
#include <functional>
#include <new>
#include <type_traits>
#include <utility>

namespace ntier::sim {

template <typename Sig>
class Callback;

namespace detail {
template <typename F>
struct IsStdFunction : std::false_type {};
template <typename S>
struct IsStdFunction<std::function<S>> : std::true_type {};
}  // namespace detail

/// Move-only, single-owner callable: the continuation type of every
/// per-request hop (events, CPU jobs, links, balancer and server
/// completions, and the KV, cache and probe tiers).
///
/// Closures of up to kInlineSize bytes — `{this, handle}` plus a small
/// scalar, which is what every flattened continuation captures — live in
/// the object itself; larger ones fall back to one heap block. A closure
/// that holds another Callback (32 B) can never fit, so a hop that must
/// carry a caller's continuation parks it in a SlotTable record and
/// captures the record's handle instead. Unlike std::function it never
/// copies its target, so closures may capture move-only state (a
/// proto::RequestRef among them). A const call invokes a mutable target.
///
/// Registered, long-lived hooks (samplers, probe transports, recovery
/// hooks) stay std::function: they are copied and called many times, and
/// their cost is not per request.
template <typename R, typename... Args>
class Callback<R(Args...)> {
 public:
  static constexpr std::size_t kInlineSize = 24;

  Callback() noexcept = default;
  Callback(std::nullptr_t) noexcept {}  // NOLINT: implicit like std::function

  template <typename F, typename D = std::decay_t<F>,
            typename = std::enable_if_t<!std::is_same_v<D, Callback> &&
                                        std::is_invocable_r_v<R, D&, Args...>>>
  Callback(F&& f) {  // NOLINT: implicit like std::function
    if constexpr (kNullable<D>) {
      if (!f) return;  // an empty std::function or a null pointer stays empty
    }
    if constexpr (kFitsInline<D>) {
      ::new (static_cast<void*>(buf_)) D(std::forward<F>(f));
    } else {
      D* heap = new D(std::forward<F>(f));
      std::memcpy(buf_, &heap, sizeof heap);
    }
    ops_ = &kOps<D>;
  }

  Callback(Callback&& o) noexcept { take(o); }
  Callback& operator=(Callback&& o) noexcept {
    if (this != &o) {
      reset();
      take(o);
    }
    return *this;
  }
  Callback& operator=(std::nullptr_t) noexcept {
    reset();
    return *this;
  }
  Callback(const Callback&) = delete;
  Callback& operator=(const Callback&) = delete;
  ~Callback() { reset(); }

  explicit operator bool() const noexcept { return ops_ != nullptr; }

  /// Precondition: non-empty.
  R operator()(Args... args) const {
    assert(ops_ != nullptr && "call of an empty Callback");
    return ops_->invoke(buf_, std::forward<Args>(args)...);
  }

 private:
  template <typename D>
  static constexpr bool kNullable = std::is_pointer_v<D> ||
                                    std::is_member_pointer_v<D> ||
                                    detail::IsStdFunction<D>::value;

  template <typename D>
  static constexpr bool kFitsInline =
      sizeof(D) <= kInlineSize && alignof(D) <= alignof(void*) &&
      std::is_nothrow_move_constructible_v<D>;

  /// Per-target-type operations. Null `relocate`/`destroy` mean the bytes
  /// can be moved with memcpy and need no destructor (trivially copyable
  /// inline targets, and the heap fallback's owning pointer for relocate).
  struct Ops {
    R (*invoke)(void* buf, Args&&... args);
    void (*relocate)(void* dst, void* src) noexcept;
    void (*destroy)(void* buf) noexcept;
  };

  template <typename D>
  static D* target(void* buf) {
    if constexpr (kFitsInline<D>) {
      return std::launder(static_cast<D*>(buf));
    } else {
      D* heap;
      std::memcpy(&heap, buf, sizeof heap);
      return heap;
    }
  }

  template <typename D>
  static R invoke_target(void* buf, Args&&... args) {
    if constexpr (std::is_void_v<R>)
      std::invoke(*target<D>(buf), std::forward<Args>(args)...);  // drop a result
    else
      return std::invoke(*target<D>(buf), std::forward<Args>(args)...);
  }

  template <typename D>
  static void relocate_target(void* dst, void* src) noexcept {
    D* s = target<D>(src);
    ::new (dst) D(std::move(*s));
    s->~D();
  }

  template <typename D>
  static void destroy_target(void* buf) noexcept {
    if constexpr (kFitsInline<D>)
      target<D>(buf)->~D();
    else
      delete target<D>(buf);
  }

  template <typename D>
  static constexpr bool kTrivialInline =
      kFitsInline<D> && std::is_trivially_copyable_v<D>;

  template <typename D>
  static constexpr Ops kOps{
      &invoke_target<D>,
      (!kFitsInline<D> || kTrivialInline<D>) ? nullptr : &relocate_target<D>,
      kTrivialInline<D> ? nullptr : &destroy_target<D>};

  void take(Callback& o) noexcept {
    ops_ = o.ops_;
    if (ops_ == nullptr) return;
    if (ops_->relocate)
      ops_->relocate(buf_, o.buf_);
    else
      std::memcpy(buf_, o.buf_, kInlineSize);
    o.ops_ = nullptr;
  }

  void reset() noexcept {
    if (ops_ != nullptr && ops_->destroy) ops_->destroy(buf_);
    ops_ = nullptr;
  }

  // Zeroed so the fixed-size memcpy relocation never reads bytes a small
  // target left unwritten.
  alignas(void*) mutable unsigned char buf_[kInlineSize] = {};
  const Ops* ops_ = nullptr;
};

static_assert(sizeof(Callback<void()>) == 32,
              "Callback must stay the size of std::function: every event "
              "slot holds one");

}  // namespace ntier::sim
