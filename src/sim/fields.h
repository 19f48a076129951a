#pragma once

// Field tables: the one description of every struct that is set from text.
//
// A struct set from a "key=value,key=value" spec (KvConfig, CacheConfig,
// TraceGenSpec) lists its fields once, in declaration order, in a free
//
//   constexpr void visit(sim::FieldsOf<T> auto& c, auto&& row)
//
// that calls row(key, c.field, kind) per field, plus a spec_name() for its
// error messages. parse_spec<T> reads a spec through that table and
// spec_text writes the canonical spec back; both static_assert
// FieldsComplete<T>, so a member without a row fails the build. A command
// line is a table of the same shape over flag spellings, read one flag at a
// time by apply_flag. The tokenizer (for_each_spec_item) and the number
// and time checks (parse_number, parse_time) live in sim/time.h.

#include <algorithm>
#include <concepts>
#include <cstdint>
#include <limits>
#include <optional>
#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

#include "sim/time.h"

namespace ntier::sim {

// -- field kinds: how one field reads from and writes to text ----------------

/// An integer, accepted in [lo, hi] and within the field type's range.
struct Int {
  std::int64_t lo = std::numeric_limits<std::int64_t>::min();
  std::uint64_t hi = std::numeric_limits<std::uint64_t>::max();
};
/// A finite double, accepted when >= lo (> lo when `open`).
struct Real {
  double lo = -std::numeric_limits<double>::infinity();
  bool open = false;
};
/// A SimTime written as a decimal count of `unit`s, read by parse_time.
struct Time {
  std::string_view unit;
  double seconds;  // the length of one unit
};
inline constexpr Time kMillis{"ms", 1e-3};
inline constexpr Time kSeconds{"s", 1};
/// A bool written 0 or 1.
struct Bit {};
/// A command-line flag without a value: it stores `value`.
struct Switch {
  bool value = true;
};
/// A command-line flag whose value is stored as given (a path).
struct Text {};
/// A command-line flag whose value is a spec, read by parse_spec.
struct Spec {};

// -- the typed value parsers and writers --------------------------------------
// Each parser returns "" and stores the value, or returns the reason (naming
// `key`) and leaves `field` as it was.

template <std::integral T>
  requires(!std::same_as<T, bool>)
std::string parse_value(std::string_view key, std::string_view text, T& field,
                        Int kind) {
  // A leading '-' reads as int64, anything else as uint64, so both ends of
  // every field type's range parse.
  const bool negative = text.starts_with('-');
  const auto below = negative ? parse_number<std::int64_t>(text) : std::nullopt;
  const auto above = negative ? std::nullopt : parse_number<std::uint64_t>(text);
  const auto lo = std::max<std::int64_t>(kind.lo, std::numeric_limits<T>::min());
  const auto hi = std::min<std::uint64_t>(kind.hi, std::numeric_limits<T>::max());
  if (!below && !above)
    return "bad integer for '" + std::string(key) + "': '" +
           std::string(text) + "'";
  if (below ? *below < lo : lo > 0 && *above < static_cast<std::uint64_t>(lo))
    return std::string(key) + " must be >= " + std::to_string(lo);
  if (above && *above > hi)
    return std::string(key) + " must be <= " + std::to_string(hi);
  field = below ? static_cast<T>(*below) : static_cast<T>(*above);
  return "";
}
std::string parse_value(std::string_view key, std::string_view text,
                        double& field, Real kind);
std::string parse_value(std::string_view key, std::string_view text,
                        SimTime& field, Time kind);
std::string parse_value(std::string_view key, std::string_view text,
                        bool& field, Bit);
std::string parse_value(std::string_view key, std::string_view text,
                        std::string& field, Text);

template <std::integral T>
std::string format_value(T field, Int) {
  return std::to_string(field);
}
/// Shortest text that reads back to the same double.
std::string format_value(double field, Real);
/// Exact decimal count of units, e.g. 0.5 for 500 us in ms; any time
/// parse_time produced reads back to itself.
std::string format_value(SimTime field, Time kind);
inline std::string format_value(bool field, Bit) { return field ? "1" : "0"; }

// -- tables ---------------------------------------------------------------------

/// `C` is T or const T: one visit() serves both reading and writing.
template <class C, class T>
concept FieldsOf = std::same_as<std::remove_const_t<C>, T>;

namespace detail {
/// Converts to any member type, so T{AnyField{}...} counts T's members.
struct AnyField {
  template <class M>
  operator M() const;
};
template <class T, class... Seen>
constexpr std::size_t member_count() {
  if constexpr (requires { T{Seen{}..., AnyField{}}; })
    return member_count<T, Seen..., AnyField>();
  else
    return sizeof...(Seen);
}
template <class T>
constexpr std::size_t row_count() {
  T cfg{};
  std::size_t rows = 0;
  visit(cfg, [&rows](std::string_view, auto&, auto) { ++rows; });
  return rows;
}
}  // namespace detail

/// True when T's visit() has one row per member of the aggregate T.
template <class T>
concept FieldsComplete = detail::row_count<T>() == detail::member_count<T>();

/// The canonical text of `cfg`: every row as key=value in row order, joined
/// by commas. parse_spec reads it back to an equal struct.
template <class T>
std::string spec_text(const T& cfg) {
  static_assert(FieldsComplete<T>, "a member has no row in its visit() table");
  std::string out;
  visit(cfg, [&out](std::string_view key, const auto& field, auto kind) {
    if (!out.empty()) out += ',';
    out.append(key).append("=").append(format_value(field, kind));
  });
  return out;
}

/// Parses "key=value,key=value" over T's defaults through T's table, then
/// T::validate(). Returns nullopt and fills `error` ("<spec_name>: <why>"
/// or validate()'s message) on an unknown key, a malformed or out-of-range
/// value, or a struct that fails validate().
template <class T>
std::optional<T> parse_spec(std::string_view text, std::string* error) {
  static_assert(FieldsComplete<T>, "a member has no row in its visit() table");
  T cfg{};
  const std::string why = for_each_spec_item(
      text, [&cfg](const std::string& key, const std::string& value) {
        std::string reason = "unknown key '" + key + "'";
        visit(cfg, [&](std::string_view name, auto& field, auto kind) {
          if (name == key) reason = parse_value(key, value, field, kind);
        });
        return reason;
      });
  if (!why.empty()) {
    if (error) *error = std::string(spec_name(cfg)) + ": " + why;
    return std::nullopt;
  }
  if (!cfg.validate(error)) return std::nullopt;
  return cfg;
}

/// A spec-valued flag: `field` is a table-described struct or an optional
/// one; the reason is parse_spec's.
template <class T>
std::string parse_value(std::string_view, std::string_view text, T& field,
                        Spec) {
  // optional{field} is an optional<T>, or `field` itself if it is one.
  using Parsed = typename decltype(std::optional{field})::value_type;
  std::string why;
  const auto parsed = parse_spec<Parsed>(text, &why);
  if (parsed) field = *parsed;
  return why;
}

// -- the flag loop -------------------------------------------------------------

/// What offering command-line flag args[i] to a flag table did. `error` is
/// empty unless the flag's value is missing or bad: "bad <flag>", "missing
/// <flag> value" (a Text or Spec flag) or "bad <flag>: <reason>" (a Spec
/// flag).
struct FlagResult {
  enum Status { kNotInTable, kApplied, kMissingValue, kBadValue };
  Status status = kNotInTable;
  std::string error;
};

/// Offers flag args[i] to a flag table: `table(row)` calls
/// row(flag, field, kind) once per flag it knows. The matching row reads
/// the flag's value, if its kind takes one, into `field` and leaves i at
/// that value; kNotInTable leaves i alone.
template <class Table>
FlagResult apply_flag(Table&& table, const std::vector<std::string>& args,
                      std::size_t& i) {
  const std::string& flag = args[i];
  FlagResult result;
  table([&](std::string_view name, auto& field, auto kind) {
    using Kind = decltype(kind);
    if (result.status != FlagResult::kNotInTable || name != flag) return;
    result.status = FlagResult::kApplied;
    if constexpr (std::same_as<Kind, Switch>) {
      field = kind.value;
    } else if (i + 1 >= args.size()) {
      const bool named = std::same_as<Kind, Text> || std::same_as<Kind, Spec>;
      result = {FlagResult::kMissingValue,
                named ? "missing " + flag + " value" : "bad " + flag};
    } else if (const std::string why = parse_value(flag, args[++i], field, kind);
               !why.empty()) {
      result = {FlagResult::kBadValue,
                "bad " + flag + (std::same_as<Kind, Spec> ? ": " + why : "")};
    }
  });
  return result;
}

}  // namespace ntier::sim
