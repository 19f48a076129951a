#pragma once

#include <coroutine>
#include <exception>
#include <memory>
#include <optional>
#include <utility>

#include "sim/simulation.h"
#include "sim/time.h"

namespace ntier::sim {

/// Coroutine-based process API over the callback kernel.
///
/// A `Process` is a coroutine that can suspend on simulated time or on
/// asynchronous completions, writing sequential model code where the
/// callback style would nest:
///
///   sim::Process client(sim::Simulation& simu, Server& server) {
///     for (;;) {
///       co_await sim::delay(simu, think_time);
///       co_await server.async_request();   // any Awaitable<T>
///     }
///   }
///
/// Processes are eager (start running when called) and detached: the
/// coroutine frame lives until the body finishes or the Simulation is
/// destroyed. Use `Completion<T>` to bridge callback APIs into awaitables.
class Process {
 public:
  struct promise_type {
    Process get_return_object() {
      return Process{std::coroutine_handle<promise_type>::from_promise(*this)};
    }
    // Eager start: the body runs until its first suspension immediately.
    std::suspend_never initial_suspend() noexcept { return {}; }
    // Self-destroy on completion: fire-and-forget semantics.
    std::suspend_never final_suspend() noexcept { return {}; }
    void return_void() noexcept {}
    [[noreturn]] void unhandled_exception() { std::terminate(); }
  };

  explicit Process(std::coroutine_handle<promise_type> h) : handle_(h) {}

 private:
  std::coroutine_handle<promise_type> handle_;
};

/// Awaitable that resumes the coroutine after `d` of simulated time.
class DelayAwaiter {
 public:
  DelayAwaiter(Simulation& simu, SimTime d) : sim_(simu), delay_(d) {}

  bool await_ready() const noexcept { return delay_ <= SimTime::zero(); }
  void await_suspend(std::coroutine_handle<> h) {
    sim_.after(delay_, [h] { h.resume(); });
  }
  void await_resume() const noexcept {}

 private:
  Simulation& sim_;
  SimTime delay_;
};

inline DelayAwaiter delay(Simulation& simu, SimTime d) {
  return DelayAwaiter(simu, d);
}

/// One-shot completion channel bridging callback APIs into awaitables.
///
///   sim::Completion<bool> done;
///   pool.acquire(..., done.callback());
///   const bool ok = co_await done;
///
/// The callback may fire before or after the co_await — both orders work.
/// Single producer, single consumer, single use.
template <typename T>
class Completion {
 public:
  Completion() : state_(std::make_shared<State>()) {}

  /// The callback to hand to the producer.
  Callback<void(T)> callback() {
    return [state = state_](T value) {
      state->value.emplace(std::move(value));
      if (state->waiter) {
        auto h = state->waiter;
        state->waiter = nullptr;
        h.resume();
      }
    };
  }

  bool await_ready() const noexcept { return state_->value.has_value(); }
  void await_suspend(std::coroutine_handle<> h) { state_->waiter = h; }
  T await_resume() { return std::move(*state_->value); }

 private:
  struct State {
    std::optional<T> value;
    std::coroutine_handle<> waiter = nullptr;
  };
  std::shared_ptr<State> state_;
};

/// void specialisation: a pure event.
template <>
class Completion<void> {
 public:
  Completion() : state_(std::make_shared<State>()) {}

  Callback<void()> callback() {
    return [state = state_] {
      state->done = true;
      if (state->waiter) {
        auto h = state->waiter;
        state->waiter = nullptr;
        h.resume();
      }
    };
  }

  bool await_ready() const noexcept { return state_->done; }
  void await_suspend(std::coroutine_handle<> h) { state_->waiter = h; }
  void await_resume() const noexcept {}

 private:
  struct State {
    bool done = false;
    std::coroutine_handle<> waiter = nullptr;
  };
  std::shared_ptr<State> state_;
};

}  // namespace ntier::sim
