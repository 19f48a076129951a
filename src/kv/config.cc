#include "kv/config.h"

namespace ntier::kv {

bool KvConfig::validate(std::string* error) const {
  auto fail = [error](const std::string& why) {
    if (error) *error = "kv config: " + why;
    return false;
  };
  if (replicas < 1) return fail("replicas must be >= 1");
  if (shards < 1) return fail("shards must be >= 1");
  if (vnodes < 1) return fail("vnodes must be >= 1");
  if (n < 1) return fail("n must be >= 1");
  if (n > replicas)
    return fail("n=" + std::to_string(n) + " exceeds replicas=" +
                std::to_string(replicas));
  if (r < 1 || r > n)
    return fail("r=" + std::to_string(r) + " must be in [1, n=" +
                std::to_string(n) + "]");
  if (w < 1 || w > n)
    return fail("w=" + std::to_string(w) + " must be in [1, n=" +
                std::to_string(n) + "]");
  if (r + w <= n)
    return fail("r+w must exceed n for quorum intersection (r=" +
                std::to_string(r) + ", w=" + std::to_string(w) + ", n=" +
                std::to_string(n) + ")");
  return true;
}

}  // namespace ntier::kv
