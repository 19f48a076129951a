#pragma once

#include <cstdint>
#include <compare>
#include <optional>
#include <string>
#include <string_view>

namespace ntier::sim {

/// Simulated time, stored as integer nanoseconds since the start of the
/// simulation. The same type doubles as a duration (like absl::Duration);
/// the simulator never needs wall-clock anchoring. Integer representation
/// keeps event ordering exact and runs reproducible.
class SimTime {
 public:
  constexpr SimTime() = default;

  // -- named constructors ---------------------------------------------------
  static constexpr SimTime nanos(std::int64_t n) { return SimTime{n}; }
  static constexpr SimTime micros(std::int64_t u) { return SimTime{u * 1000}; }
  static constexpr SimTime millis(std::int64_t m) { return SimTime{m * 1'000'000}; }
  static constexpr SimTime seconds(std::int64_t s) { return SimTime{s * 1'000'000'000}; }
  /// Fractional seconds (workload/think-time math); rounds to nearest ns.
  static constexpr SimTime from_seconds(double s) {
    return SimTime{static_cast<std::int64_t>(s * 1e9 + (s >= 0 ? 0.5 : -0.5))};
  }
  static constexpr SimTime from_millis(double ms) { return from_seconds(ms * 1e-3); }
  static constexpr SimTime zero() { return SimTime{0}; }
  static constexpr SimTime max() { return SimTime{INT64_MAX}; }

  // -- accessors ------------------------------------------------------------
  constexpr std::int64_t ns() const { return ns_; }
  constexpr std::int64_t us() const { return ns_ / 1000; }
  constexpr std::int64_t ms() const { return ns_ / 1'000'000; }
  constexpr double to_seconds() const { return static_cast<double>(ns_) * 1e-9; }
  constexpr double to_millis() const { return static_cast<double>(ns_) * 1e-6; }

  // -- arithmetic -----------------------------------------------------------
  constexpr SimTime operator+(SimTime o) const { return SimTime{ns_ + o.ns_}; }
  constexpr SimTime operator-(SimTime o) const { return SimTime{ns_ - o.ns_}; }
  constexpr SimTime& operator+=(SimTime o) { ns_ += o.ns_; return *this; }
  constexpr SimTime& operator-=(SimTime o) { ns_ -= o.ns_; return *this; }
  constexpr SimTime operator*(std::int64_t k) const { return SimTime{ns_ * k}; }
  constexpr SimTime operator/(std::int64_t k) const { return SimTime{ns_ / k}; }
  /// Ratio of two durations.
  constexpr double operator/(SimTime o) const {
    return static_cast<double>(ns_) / static_cast<double>(o.ns_);
  }
  friend constexpr SimTime operator*(std::int64_t k, SimTime t) { return t * k; }

  constexpr auto operator<=>(const SimTime&) const = default;

  /// "12.345s" / "87.2ms" style rendering for logs and bench output.
  std::string to_string() const;

 private:
  constexpr explicit SimTime(std::int64_t n) : ns_(n) {}
  std::int64_t ns_ = 0;
};

/// Checked conversion of a time-valued command-line flag counted in units of
/// `unit_seconds` (1e-3 for a --*-ms flag): parse_time("50", 1e-3) is 50 ms.
/// Empty unless the text is a finite decimal (std::from_chars: no locale, no
/// trailing garbage) that rounds to at least 1 ns and to fewer than 2^63 ns.
/// Rounds as from_seconds does.
std::optional<SimTime> parse_time(std::string_view text, double unit_seconds);

}  // namespace ntier::sim
