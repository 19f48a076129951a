#pragma once

// Heap-allocation counting for bench_perf: every global operator new form is
// replaced in this binary, and calls are counted only between start() and
// stop() — the benchmark's timed spans. The process is single-threaded while
// counting, so the counter is a plain integer.

#include <cstdint>

namespace perf::alloc {

void start();
/// Allocations since the matching start().
std::uint64_t stop();

/// RAII span: counts allocations for its lifetime into `out`.
class Counted {
 public:
  explicit Counted(std::uint64_t& out) : out_(out) { start(); }
  ~Counted() { out_ += stop(); }
  Counted(const Counted&) = delete;
  Counted& operator=(const Counted&) = delete;

 private:
  std::uint64_t& out_;
};

}  // namespace perf::alloc
