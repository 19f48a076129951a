#pragma once

// Signal-based sampling profiler for the traced rep. ITIMER_PROF delivers
// SIGPROF on the kernel tick (about 250 Hz on the reference host); the
// handler stores the interrupted leaf PC in a preallocated buffer. After the
// run, PCs are named from the executable's .symtab (dladdr as a fallback),
// demangled, and bucketed by the first "ntier::<module>::" in the name,
// otherwise "std", otherwise "libc". Frames of the benchmark itself land in
// "bench".

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perf::profiler {

/// Leaf-PC capture is implemented for x86-64 Linux only; elsewhere the
/// self-time metrics are reported absent.
bool supported();

void start();
void stop();
std::size_t samples();

struct Report {
  std::map<std::string, std::uint64_t> by_module;
  /// Most-sampled symbols, descending (at most 40).
  std::vector<std::pair<std::string, std::uint64_t>> top_symbols;
};
Report resolve();

}  // namespace perf::profiler
