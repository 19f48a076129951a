#include "digest.h"

#include <cstdio>
#include <cstring>

namespace perf {
namespace {

class Fnv1a {
 public:
  void u64(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h_ ^= (v >> (8 * i)) & 0xffu;
      h_ *= 0x100000001b3ull;
    }
  }
  void i64(std::int64_t v) { u64(static_cast<std::uint64_t>(v)); }
  void f64(double v) {
    std::uint64_t bits = 0;
    std::memcpy(&bits, &v, sizeof bits);
    u64(bits);
  }
  std::uint64_t value() const { return h_; }

 private:
  std::uint64_t h_ = 0xcbf29ce484222325ull;
};

}  // namespace

std::uint64_t outcome_digest(const ntier::experiment::Experiment& e) {
  Fnv1a h;
  const auto& log = e.log();
  h.i64(log.completed());
  h.i64(log.dropped());
  h.i64(log.balancer_errors());
  h.i64(log.total_retransmissions());
  h.i64(log.completed_within_deadline());
  h.i64(log.total_sheds());
  h.f64(log.mean_response_ms());
  for (const double p : {50.0, 99.0, 99.9}) h.f64(log.percentile_ms(p));
  h.i64(log.vlrt_count());
  const auto& rt = log.response_time_series();
  h.u64(rt.num_windows());
  for (std::size_t w = 0; w < rt.num_windows(); ++w) {
    h.i64(rt.count(w));
    h.f64(rt.sum(w));
    h.f64(rt.max(w));
  }
  const auto& c = e.clients();
  for (const std::uint64_t v : {c.issued(), c.completed_ok(), c.failed(),
                                c.dropped(), c.connection_drops(),
                                c.shed_retries()})
    h.u64(v);
  if (const auto* r = e.replayer()) {
    for (const std::uint64_t v : {r->issued(), r->completed_ok(), r->dropped(),
                                  r->failed(), r->connection_drops(),
                                  r->abandoned()})
      h.u64(v);
  }
  return h.value();
}

std::string to_hex(std::uint64_t v) {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(v));
  return buf;
}

}  // namespace perf
