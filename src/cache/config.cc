#include "cache/config.h"

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

}  // namespace ntier::cache
