// Tests for the field tables behind every text-set config (sim/fields.h):
// each row reaches the canonical text and reads back, the member-count check
// notices a missing row, and the typed value parsers keep their bounds.
#include "sim/fields.h"

#include <gtest/gtest.h>

#include "cache/config.h"
#include "kv/config.h"
#include "workload/trace_gen.h"

namespace ntier {
namespace {

using sim::SimTime;

/// One step away from a field's value, by kind: integers and times by one
/// unit, doubles by 0.5, a bool flipped. `sign` picks the direction.
template <class T>
void nudge(T& field, sim::Int, int sign) {
  field = static_cast<T>(sign > 0 ? field + 1 : field - 1);
}
void nudge(double& field, sim::Real, int sign) { field += 0.5 * sign; }
void nudge(SimTime& field, sim::Time kind, int sign) {
  field += SimTime::from_seconds(kind.seconds) * sign;
}
void nudge(bool& field, sim::Bit, int) { field = !field; }

template <class T>
std::size_t rows_of() {
  const T cfg{};
  std::size_t rows = 0;
  visit(cfg, [&rows](std::string_view, const auto&, auto) { ++rows; });
  return rows;
}

template <class T>
class FieldTable : public ::testing::Test {};
using TextSetConfigs =
    ::testing::Types<kv::KvConfig, cache::CacheConfig, workload::TraceGenSpec>;
TYPED_TEST_SUITE(FieldTable, TextSetConfigs);

TYPED_TEST(FieldTable, DefaultsReadBackFromTheirCanonicalText) {
  const TypeParam defaults{};
  std::string err;
  const auto back = sim::parse_spec<TypeParam>(sim::spec_text(defaults), &err);
  ASSERT_TRUE(back.has_value()) << err;
  EXPECT_EQ(sim::spec_text(*back), sim::spec_text(defaults));
}

TYPED_TEST(FieldTable, EveryRowReachesTheCanonicalTextAndReadsBack) {
  // A row the writer skips leaves the text unchanged when its field moves.
  // Since every field moves the text, equal texts mean equal structs.
  const std::string base = sim::spec_text(TypeParam{});
  const std::size_t rows = rows_of<TypeParam>();
  ASSERT_GT(rows, 0u);
  for (std::size_t k = 0; k < rows; ++k) {
    bool read_back = false;
    for (const int sign : {+1, -1}) {
      TypeParam c{};
      std::string key;
      std::size_t at = 0;
      visit(c, [&](std::string_view name, auto& field, auto kind) {
        if (at++ != k) return;
        key = name;
        nudge(field, kind, sign);
      });
      const std::string text = sim::spec_text(c);
      EXPECT_NE(text, base) << "row '" << key << "' is not written";
      if (!c.validate(nullptr)) continue;  // try the other direction
      std::string err;
      const auto back = sim::parse_spec<TypeParam>(text, &err);
      ASSERT_TRUE(back.has_value()) << key << ": " << err;
      EXPECT_EQ(sim::spec_text(*back), text) << key;
      read_back = true;
      break;
    }
    EXPECT_TRUE(read_back) << "row " << k << " has no valid neighbour";
  }
}

TEST(FieldTable, KvHintCapacitySurvivesTheRoundTrip) {
  std::string err;
  const auto kv = sim::parse_spec<kv::KvConfig>("hints=128", &err);
  ASSERT_TRUE(kv.has_value()) << err;
  EXPECT_EQ(sim::spec_text(*kv),
            "replicas=4,shards=16,vnodes=8,n=3,r=2,w=2,hints=128");
  const auto back = sim::parse_spec<kv::KvConfig>(sim::spec_text(*kv), &err);
  ASSERT_TRUE(back.has_value()) << err;
  EXPECT_EQ(back->hint_capacity, 128u);
}

TEST(FieldTable, TimesPastTwoToThe53NanosecondsReadBackExactly) {
  // parse_time's double arithmetic cannot hit every ns this far out; the
  // writer picks a text that lands on the stored time.
  for (const char* ttl : {"9e12", "9223372036853", "123456789012.345678"}) {
    std::string err;
    const auto c =
        sim::parse_spec<cache::CacheConfig>(std::string("ttl_ms=") + ttl, &err);
    ASSERT_TRUE(c.has_value()) << ttl << ": " << err;
    const auto back =
        sim::parse_spec<cache::CacheConfig>(sim::spec_text(*c), &err);
    ASSERT_TRUE(back.has_value()) << sim::spec_text(*c) << ": " << err;
    EXPECT_EQ(back->ttl, c->ttl) << ttl;
  }
  EXPECT_EQ(sim::format_value(SimTime::micros(500), sim::kMillis), "0.5");
  EXPECT_EQ(sim::format_value(SimTime::seconds(10), sim::kMillis), "10000");
  EXPECT_EQ(sim::format_value(SimTime::nanos(1), sim::kSeconds), "0.000000001");
}

// A table that forgot a member: FieldsComplete, which parse_spec and
// spec_text static_assert, is false for it.
struct TwoKnobs {
  int a = 1;
  int b = 2;
};
constexpr void visit(sim::FieldsOf<TwoKnobs> auto& c, auto&& row) {
  row("a", c.a, sim::Int{});
}
static_assert(!sim::FieldsComplete<TwoKnobs>);
static_assert(sim::FieldsComplete<kv::KvConfig>);

TEST(FieldKinds, IntegersKeepTheirBoundsAndTypeRange) {
  int n = 7;
  EXPECT_EQ(sim::parse_value("n", "0", n, sim::Int{.lo = 1}), "n must be >= 1");
  EXPECT_EQ(sim::parse_value("n", "2147483648", n, sim::Int{}),
            "n must be <= 2147483647");
  EXPECT_EQ(sim::parse_value("n", "1.5", n, sim::Int{}),
            "bad integer for 'n': '1.5'");
  EXPECT_EQ(n, 7);  // untouched by every rejection
  EXPECT_EQ(sim::parse_value("n", "-2147483648", n, sim::Int{}), "");
  EXPECT_EQ(n, -2147483648);
  std::uint64_t u = 0;
  EXPECT_EQ(sim::parse_value("u", "18446744073709551615", u, sim::Int{}), "");
  EXPECT_EQ(u, 18446744073709551615u);
  EXPECT_EQ(sim::parse_value("u", "-1", u, sim::Int{}), "u must be >= 0");
}

TEST(FieldKinds, RealsAreFiniteAndBoundedBelow) {
  double x = 3;
  EXPECT_EQ(sim::parse_value("x", "inf", x, sim::Real{}),
            "bad number for 'x': 'inf'");
  EXPECT_EQ(sim::parse_value("x", "0", x, sim::Real{.lo = 0, .open = true}),
            "x must be > 0");
  EXPECT_EQ(sim::parse_value("x", "0.5", x, sim::Real{.lo = 1}),
            "x must be >= 1");
  EXPECT_EQ(x, 3.0);
  EXPECT_EQ(sim::parse_value("x", "0", x, sim::Real{.lo = 0}), "");
  EXPECT_EQ(x, 0.0);
}

TEST(FlagLoop, ReportsMissingAndBadValuesByKind) {
  int clients = 0;
  std::string path;
  const auto flags = [&](auto&& row) {
    row("--clients", clients, sim::Int{.lo = 1});
    row("--json", path, sim::Text{});
  };
  auto offer = [&](std::vector<std::string> args) {
    std::size_t i = 0;
    return sim::apply_flag(flags, args, i);
  };
  EXPECT_EQ(offer({"--jobs", "2"}).status, sim::FlagResult::kNotInTable);
  EXPECT_EQ(offer({"--clients"}).error, "bad --clients");
  EXPECT_EQ(offer({"--clients", "0"}).error, "bad --clients");
  EXPECT_EQ(offer({"--json"}).error, "missing --json value");
  const auto ok = offer({"--clients", "12"});
  EXPECT_EQ(ok.status, sim::FlagResult::kApplied);
  EXPECT_EQ(clients, 12);
}

}  // namespace
}  // namespace ntier
