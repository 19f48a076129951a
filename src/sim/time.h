#pragma once

#include <charconv>
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

/// Width of every per-window metric: the response-time and VLRT series, the
/// figure series, the online detector's window and telemetry's fine windows
/// (the paper's 50 ms fine-grained monitoring granularity).
inline constexpr SimTime kMetricWindow = SimTime::millis(50);

/// Checked conversion of a time-valued command-line flag counted in units of
/// `unit_seconds` (1e-3 for a --*-ms flag): parse_time("50", 1e-3) is 50 ms.
/// Empty unless the text is a finite decimal (std::from_chars: no locale, no
/// trailing garbage) that rounds to at least 1 ns and to fewer than 2^63 ns.
/// Rounds as from_seconds does.
std::optional<SimTime> parse_time(std::string_view text, double unit_seconds);

/// Checked std::from_chars over all of `text`: empty unless the whole text
/// is a number representable in T (no sign for unsigned T, no locale, no
/// leading or trailing characters).
template <typename T>
std::optional<T> parse_number(std::string_view text) {
  T x{};
  const char* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, x);
  if (ec != std::errc() || ptr != end) return std::nullopt;
  return x;
}

/// The one tokenizer of the comma-separated "key=value,key=value" specs
/// (--kv, --cache, --trace-gen). Calls `item(key, value)` for each non-empty
/// item in order, where `item` returns an empty string to accept the item
/// or the reason it rejects it. Returns "" when every item was accepted,
/// otherwise the first reason: "expected key=value, got '<item>'" for an
/// item without '=', or the one `item` returned.
template <typename Fn>
std::string for_each_spec_item(std::string_view spec, Fn item) {
  std::size_t pos = 0;
  while (pos < spec.size()) {
    std::size_t comma = spec.find(',', pos);
    if (comma == std::string_view::npos) comma = spec.size();
    const std::string_view text = spec.substr(pos, comma - pos);
    pos = comma + 1;
    if (text.empty()) continue;
    const std::size_t eq = text.find('=');
    if (eq == std::string_view::npos)
      return "expected key=value, got '" + std::string(text) + "'";
    std::string why =
        item(std::string(text.substr(0, eq)), std::string(text.substr(eq + 1)));
    if (!why.empty()) return why;
  }
  return "";
}

}  // namespace ntier::sim
