// Allocation regression check for the request path. This executable
// replaces the global operator new with a counting one, runs short
// experiments past their warm-up, and asserts how many heap allocations
// each simulated request costs once the pools and slot tables have grown:
// the closed-loop MySQL path must be allocation-free, and the KV + cache +
// prequal data tier and the observation stack (telemetry + online
// detection) nearly so.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <new>

#include "experiment/experiment.h"

namespace {

bool g_counting = false;
std::uint64_t g_allocs = 0;

void* counted(std::size_t n) {
  if (g_counting) ++g_allocs;
  return std::malloc(n ? n : 1);
}

void* counted_aligned(std::size_t n, std::align_val_t al) {
  if (g_counting) ++g_allocs;
  std::size_t align = static_cast<std::size_t>(al);
  if (align < sizeof(void*)) align = sizeof(void*);
  void* p = nullptr;
  return posix_memalign(&p, align, n ? n : 1) == 0 ? p : nullptr;
}

void* or_throw(void* p) {
  if (p == nullptr) throw std::bad_alloc();
  return p;
}

}  // namespace

void* operator new(std::size_t n) { return or_throw(counted(n)); }
void* operator new[](std::size_t n) { return or_throw(counted(n)); }
void* operator new(std::size_t n, const std::nothrow_t&) noexcept {
  return counted(n);
}
void* operator new[](std::size_t n, const std::nothrow_t&) noexcept {
  return counted(n);
}
void* operator new(std::size_t n, std::align_val_t al) {
  return or_throw(counted_aligned(n, al));
}
void* operator new[](std::size_t n, std::align_val_t al) {
  return or_throw(counted_aligned(n, al));
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}

namespace ntier::experiment {
namespace {

using sim::SimTime;

/// Allocations per request issued after `warmup`, counted while run() drives
/// the rest of the experiment.
double allocs_per_request(ExperimentConfig cfg, SimTime warmup) {
  Experiment e(std::move(cfg));
  std::uint64_t issued_at_warmup = 0;
  e.simulation().at(warmup, [&] {
    issued_at_warmup = e.clients().issued();
    g_allocs = 0;
    g_counting = true;
  });
  e.run();
  g_counting = false;
  const std::uint64_t requests = e.clients().issued() - issued_at_warmup;
  EXPECT_GT(requests, 10'000u);
  const double per_req =
      static_cast<double>(g_allocs) / static_cast<double>(requests);
  std::printf("%llu allocations over %llu requests after warm-up: %.4f each\n",
              static_cast<unsigned long long>(g_allocs),
              static_cast<unsigned long long>(requests), per_req);
  return per_req;
}

TEST(AllocFree, MySqlPathAllocatesNothingPerRequest) {
  // The paper's 4A/4T/1M testbed at the scaled operating point, Tomcat
  // pdflush stalls and figure tracing on.
  ExperimentConfig c = ExperimentConfig::scaled(0.1);
  c.duration = SimTime::seconds(10);
  const double per_req = allocs_per_request(c, SimTime::seconds(4));
  EXPECT_LE(per_req, 0.05);
}

TEST(AllocFree, KvCachePrequalPathAllocatesAlmostNothingPerRequest) {
  // The kv_cache_storm shape: prequal probing, quorum reads through the
  // look-aside cache with coalesced fills, hot-shard stalls.
  ExperimentConfig c = ExperimentConfig::scaled(0.1);
  c.duration = SimTime::seconds(10);
  c.policy = lb::PolicyKind::kPrequal;
  c.mechanism = lb::MechanismKind::kNonBlocking;
  c.tomcat_millibottlenecks = false;
  c.db_tier = server::DbTier::kKv;
  c.kv.replicas = 5;
  c.cache_tier = true;
  c.workload.key_space = 10'000;
  c.workload.zipf_s = 1.1;
  c.workload.mix = workload::Mix::kBrowseOnly;
  c.workload.query_cache_hit = 0.0;
  c.kv_millibottlenecks = true;
  c.injector.period = SimTime::seconds(3);
  c.injector.initial_offset = SimTime::seconds(2);
  const double per_req = allocs_per_request(c, SimTime::seconds(4));
  EXPECT_LE(per_req, 0.5);
}

TEST(AllocFree, ObservationStackAllocatesAlmostNothingPerRequest) {
  // The MySQL path with telemetry and online detection riding the event
  // stream: each instrument grows one vector of 50 ms windows, and the
  // detector takes its baseline median in a reused buffer.
  ExperimentConfig c = ExperimentConfig::scaled(0.1);
  c.duration = SimTime::seconds(10);
  c.telemetry.enabled = true;
  c.online_detect = true;
  const double per_req = allocs_per_request(c, SimTime::seconds(4));
  EXPECT_LE(per_req, 0.05);
}

}  // namespace
}  // namespace ntier::experiment
