#include "kv/config.h"

#include <sstream>

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

std::string KvConfig::to_string() const {
  std::ostringstream os;
  os << "replicas=" << replicas << ",shards=" << shards << ",vnodes=" << vnodes
     << ",n=" << n << ",r=" << r << ",w=" << w;
  return os.str();
}

std::optional<KvConfig> kv_config_from_string(const std::string& s,
                                              std::string* error) {
  KvConfig cfg;
  const std::string why = sim::for_each_spec_item(
      s, [&cfg](const std::string& key, const std::string& value) -> std::string {
        const auto parsed = sim::parse_number<int>(value);
        if (!parsed) return "bad integer for '" + key + "': '" + value + "'";
        if (key == "replicas") cfg.replicas = *parsed;
        else if (key == "shards") cfg.shards = *parsed;
        else if (key == "vnodes") cfg.vnodes = *parsed;
        else if (key == "n") cfg.n = *parsed;
        else if (key == "r") cfg.r = *parsed;
        else if (key == "w") cfg.w = *parsed;
        else if (key == "hints") {
          if (*parsed < 0) return "hints must be >= 0";
          cfg.hint_capacity = static_cast<std::size_t>(*parsed);
        } else {
          return "unknown key '" + key + "'";
        }
        return "";
      });
  if (!why.empty()) {
    if (error) *error = "kv config: " + why;
    return std::nullopt;
  }
  if (!cfg.validate(error)) return std::nullopt;
  return cfg;
}

}  // namespace ntier::kv
