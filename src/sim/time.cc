#include "sim/time.h"

#include <charconv>
#include <cinttypes>
#include <cstdio>

namespace ntier::sim {

std::string SimTime::to_string() const {
  char buf[64];
  const std::int64_t abs_ns = ns_ < 0 ? -ns_ : ns_;
  if (abs_ns >= 1'000'000'000) {
    std::snprintf(buf, sizeof(buf), "%.3fs", to_seconds());
  } else if (abs_ns >= 1'000'000) {
    std::snprintf(buf, sizeof(buf), "%.3fms", to_millis());
  } else if (abs_ns >= 1'000) {
    std::snprintf(buf, sizeof(buf), "%.3fus", static_cast<double>(ns_) * 1e-3);
  } else {
    std::snprintf(buf, sizeof(buf), "%" PRId64 "ns", ns_);
  }
  return buf;
}

std::optional<SimTime> parse_time(std::string_view text, double unit_seconds) {
  double x = 0;
  const char* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, x);
  if (ec != std::errc() || ptr != end) return std::nullopt;
  const double s = x * unit_seconds;
  // from_seconds' rounded ns count; 0x1p63 is INT64_MAX + 1. The negated
  // range test also rejects nan and inf.
  const double ns = s * 1e9 + 0.5;
  if (!(ns >= 1.0 && ns < 0x1p63)) return std::nullopt;
  return SimTime::from_seconds(s);
}

}  // namespace ntier::sim
