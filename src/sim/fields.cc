#include "sim/fields.h"

#include <charconv>
#include <cmath>

namespace ntier::sim {

namespace {

/// Shortest round-trip text of a double (ostream's six significant digits
/// would change the value on the way back).
std::string shortest(double v) {
  char buf[32];
  const auto [end, ec] = std::to_chars(buf, buf + sizeof(buf), v);
  return std::string(buf, end);
}

}  // namespace

std::string parse_value(std::string_view key, std::string_view text,
                        double& field, Real kind) {
  // from_chars, not std::stod: stod honours the global locale and accepts
  // trailing garbage. nan and inf parse, but no field takes them.
  const auto x = parse_number<double>(text);
  if (!x || !std::isfinite(*x))
    return "bad number for '" + std::string(key) + "': '" +
           std::string(text) + "'";
  if (kind.open ? !(*x > kind.lo) : !(*x >= kind.lo))
    return std::string(key) + (kind.open ? " must be > " : " must be >= ") +
           shortest(kind.lo);
  field = *x;
  return "";
}

std::string parse_value(std::string_view key, std::string_view text,
                        SimTime& field, Time kind) {
  const auto t = parse_time(text, kind.seconds);
  if (!t)
    return std::string(key) + " must be a finite number of " +
           std::string(kind.unit) + " in (0, 2^63 ns), got '" +
           std::string(text) + "'";
  field = *t;
  return "";
}

std::string parse_value(std::string_view key, std::string_view text,
                        bool& field, Bit) {
  if (text != "0" && text != "1") return std::string(key) + " must be 0 or 1";
  field = text == "1";
  return "";
}

std::string parse_value(std::string_view, std::string_view text,
                        std::string& field, Text) {
  field = text;
  return "";
}

std::string format_value(double field, Real) { return shortest(field); }

std::string format_value(SimTime field, Time kind) {
  // The integer units, then any remainder with its trailing zeros dropped.
  const auto per = static_cast<std::int64_t>(kind.seconds * 1e9 + 0.5);
  std::string frac = std::to_string(per + field.ns() % per).substr(1);
  while (!frac.empty() && frac.back() == '0') frac.pop_back();
  std::string text = std::to_string(field.ns() / per);
  if (!frac.empty()) text += "." + frac;
  if (field <= SimTime::zero() || parse_time(text, kind.seconds) == field)
    return text;
  // Past 2^53 ns parse_time's double arithmetic can land a few ns off the
  // exact decimal; step to the neighbouring double that lands on `field`.
  double x = static_cast<double>(field.ns()) / static_cast<double>(per);
  for (int step = 0; step < 64; ++step) {
    const std::string candidate = shortest(x);
    const auto back = parse_time(candidate, kind.seconds);
    if (back == field) return candidate;
    x = std::nextafter(x, back && *back < field ? HUGE_VAL : 0.0);
  }
  return text;
}

}  // namespace ntier::sim
