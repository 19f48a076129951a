#include "cache/config.h"

#include <limits>
#include <sstream>

namespace ntier::cache {

bool CacheConfig::validate(std::string* error) const {
  auto fail = [error](const std::string& why) {
    if (error) *error = "cache config: " + why;
    return false;
  };
  if (nodes < 1) return fail("nodes must be >= 1");
  if (bytes < 1) return fail("bytes must be >= 1");
  if (entry_bytes < 1) return fail("entry must be >= 1");
  if (bytes < entry_bytes)
    return fail("bytes=" + std::to_string(bytes) +
                " cannot hold a single entry of " +
                std::to_string(entry_bytes) + " bytes");
  if (ttl <= sim::SimTime::zero())
    return fail("ttl_ms must be > 0 (the TTL backstops dropped invalidations)");
  if (invalidation_queue_capacity < 1)
    return fail("inval_queue must be >= 1");
  return true;
}

std::string CacheConfig::to_string() const {
  // ttl_ms is exact to the ns (ttl_ms accepts fractional ms): the integer
  // ms, then any sub-ms remainder with its trailing zeros dropped.
  std::string frac = std::to_string(1'000'000 + ttl.ns() % 1'000'000).substr(1);
  while (!frac.empty() && frac.back() == '0') frac.pop_back();
  std::ostringstream os;
  os << "nodes=" << nodes << ",bytes=" << bytes << ",entry=" << entry_bytes
     << ",ttl_ms=" << ttl.ns() / 1'000'000 << (frac.empty() ? "" : ".")
     << frac << ",inval_queue=" << invalidation_queue_capacity
     << ",coalesce=" << (coalesce ? 1 : 0);
  return os.str();
}

std::optional<CacheConfig> cache_config_from_string(const std::string& s,
                                                    std::string* error) {
  CacheConfig cfg;
  const std::string why = sim::for_each_spec_item(
      s, [&cfg](const std::string& key, const std::string& value) -> std::string {
        if (key == "ttl_ms") {
          // The same checked conversion as every --*-ms flag.
          const auto ttl = sim::parse_time(value, 1e-3);
          if (!ttl)
            return "ttl_ms must be a finite number of ms in (0, 2^63 ns), got '" +
                   value + "'";
          cfg.ttl = *ttl;
          return "";
        }
        const auto parsed = sim::parse_number<std::int64_t>(value);
        if (!parsed) return "bad integer for '" + key + "': '" + value + "'";
        const std::int64_t n = *parsed;
        if (key == "nodes") {
          if (n < 1) return "nodes must be >= 1";
          if (n > std::numeric_limits<int>::max())
            return "nodes must be <= " +
                   std::to_string(std::numeric_limits<int>::max());
          cfg.nodes = static_cast<int>(n);
        } else if (key == "bytes") {
          if (n < 0) return "bytes must be >= 0";
          cfg.bytes = static_cast<std::uint64_t>(n);
        } else if (key == "entry") {
          if (n < 0) return "entry must be >= 0";
          if (n > std::numeric_limits<std::uint32_t>::max())
            return "entry must be <= " +
                   std::to_string(std::numeric_limits<std::uint32_t>::max());
          cfg.entry_bytes = static_cast<std::uint32_t>(n);
        } else if (key == "inval_queue") {
          if (n < 0) return "inval_queue must be >= 0";
          cfg.invalidation_queue_capacity = static_cast<std::size_t>(n);
        } else if (key == "coalesce") {
          if (n != 0 && n != 1) return "coalesce must be 0 or 1";
          cfg.coalesce = n == 1;
        } else {
          return "unknown key '" + key + "'";
        }
        return "";
      });
  if (!why.empty()) {
    if (error) *error = "cache config: " + why;
    return std::nullopt;
  }
  if (!cfg.validate(error)) return std::nullopt;
  return cfg;
}

}  // namespace ntier::cache
