#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "sim/time.h"

namespace ntier::proto {

/// Why the overload-control layer refused or abandoned a request.
/// kNone means the request was never shed. A shed request still gets a
/// (failed) response, so client-side request conservation is unaffected;
/// the reason rides along so every tier and the metrics layer can
/// attribute the shed without widening RequestOutcome.
enum class ShedReason : std::uint8_t {
  kNone = 0,
  kAdmission,        // admission limiter rejected at the door (retriable 503)
  kBrownout,         // low-priority work rejected under brownout
  kDeadlineExpired,  // deadline had already passed when the tier looked at it
  kSojourn,          // CoDel sojourn-time drop while draining a standing queue
  kRecovery,         // recovery orchestrator hard-shedding until queues drain
};

/// One client interaction travelling through the n-tier system. Demands are
/// pre-drawn by the workload generator (so a request is reproducible and
/// self-contained); servers consume them as the request traverses tiers.
struct Request {
  std::uint64_t id = 0;
  std::uint16_t interaction = 0;  // index into the workload interaction table
  /// Originating client (think-loop bookkeeping). 32-bit so replayed
  /// production traces can carry a day's worth of distinct users, not just a
  /// closed-loop population's slots.
  std::uint32_t client = 0;

  // -- service demands ------------------------------------------------------
  sim::SimTime apache_demand;       // front-end CPU (parse, static, proxying)
  sim::SimTime tomcat_demand;       // servlet CPU
  std::uint8_t db_queries = 0;      // round trips to MySQL
  sim::SimTime mysql_demand;        // CPU per query (query-cache hits are cheap)
  /// How many of the db round trips are writes (the *last* db_writes trips;
  /// the data tier routes them through the write quorum). Zero for pure
  /// reads and for the browse-only mix.
  std::uint8_t db_writes = 0;
  /// Data key the interaction touches (Zipf-popular under --zipf-s). The KV
  /// tier shards by this key; the MySQL tier ignores it.
  std::uint64_t key = 0;

  // -- sizes (drive the total_traffic policy and log volume) ----------------
  std::uint32_t request_bytes = 0;
  std::uint32_t response_bytes = 0;
  std::uint32_t log_bytes = 0;      // appended to the Tomcat node's page cache

  // -- life-cycle bookkeeping -----------------------------------------------
  sim::SimTime client_start;        // first connection attempt at the client
  /// Per-hop timestamps for latency breakdown: when an Apache worker picked
  /// the request up, when the balancer yielded an endpoint, and when the
  /// backend's response arrived back at the Apache.
  sim::SimTime accepted_at;
  sim::SimTime assigned_at;
  sim::SimTime backend_done_at;
  std::uint8_t retransmissions = 0; // dropped-and-retried connection attempts
  std::int16_t apache_id = -1;
  std::int16_t tomcat_id = -1;
  /// Sticky-session route (mod_jk jvmRoute): the Tomcat that owns this
  /// client's session, or -1 for a route-less request.
  std::int16_t session_route = -1;

  // -- overload control ------------------------------------------------------
  /// Absolute completion deadline (client budget added to client_start);
  /// zero means "no deadline". Propagated unchanged through every tier, so
  /// each hop sees the remaining budget as `deadline - now`.
  sim::SimTime deadline;
  /// Priority class: 0 = high (writes/logins), 1 = normal (views/browse),
  /// 2 = low (searches, batch-ish reads). Brownout sheds high numbers first.
  std::uint8_t priority = 1;
  /// Set by whichever tier shed the request; cleared before a retry attempt.
  ShedReason shed = ShedReason::kNone;
  /// Client-side re-attempts after a retriable 503 (admission/brownout).
  std::uint8_t shed_retries = 0;

  // -- KV data tier ----------------------------------------------------------
  /// Total time this request spent waiting on KV quorums (all round trips),
  /// and the share of it spent while the touched shard was degraded (one or
  /// more preference-list replicas down).
  sim::SimTime kv_quorum_wait;
  sim::SimTime kv_degraded_wait;
};

inline const char* to_string(ShedReason r) {
  switch (r) {
    case ShedReason::kNone: return "none";
    case ShedReason::kAdmission: return "admission";
    case ShedReason::kBrownout: return "brownout";
    case ShedReason::kDeadlineExpired: return "deadline_expired";
    case ShedReason::kSojourn: return "sojourn";
    case ShedReason::kRecovery: return "recovery";
  }
  return "?";
}

class RequestPool;

namespace detail {
/// One pooled request with its reference count. The pool that issued it is
/// reached through `arena`, so a handle needs nothing but this pointer. The
/// count sits in front of the request, on the cache line its most-read
/// fields (id, interaction, client, demands) share, as shared_ptr's control
/// block did.
struct RequestNode {
  std::uint32_t refs = 0;
  struct RequestArena* arena = nullptr;
  RequestNode* next_free = nullptr;
  Request req;
};

/// The storage behind a RequestPool: fixed-size chunks (addresses stay put
/// while the pool grows) and an intrusive LIFO free list. It outlives its
/// pool while handles are still live, so the order in which a run tears
/// down its components and its pending events does not matter: the last
/// handle released after the pool is gone frees the arena.
struct RequestArena {
  static constexpr std::size_t kChunk = 256;
  std::vector<std::unique_ptr<RequestNode[]>> chunks;
  RequestNode* free = nullptr;
  std::size_t live = 0;
  bool orphaned = false;  // the owning RequestPool was destroyed

  RequestNode* acquire() {
    if (free == nullptr) {
      chunks.push_back(std::make_unique<RequestNode[]>(kChunk));
      RequestNode* chunk = chunks.back().get();
      for (std::size_t i = kChunk; i-- > 0;) {
        chunk[i].arena = this;
        chunk[i].next_free = free;
        free = &chunk[i];
      }
    }
    RequestNode* n = free;
    free = n->next_free;
    n->next_free = nullptr;
    n->req = Request{};
    n->refs = 1;
    ++live;
    return n;
  }

  /// Returns the node to the free list; true when the arena itself should
  /// now be deleted (orphaned and empty).
  bool release(RequestNode* n) {
    n->next_free = free;
    free = n;
    --live;
    return orphaned && live == 0;
  }
};
}  // namespace detail

/// Shared handle to a pooled Request: one pointer (8 bytes) with a
/// non-atomic reference count, so copying it into a continuation costs an
/// increment instead of shared_ptr's atomic traffic, and making a request
/// costs no allocation once the pool has grown to the run's high-water
/// in-flight count. Lifetime is shared like shared_ptr: a straggler quorum
/// reply or an abandoned backend attempt keeps the request alive after the
/// client has settled it. A run's requests live on one thread, so the
/// count is never touched concurrently.
class RequestRef {
 public:
  RequestRef() noexcept = default;
  RequestRef(const RequestRef& o) noexcept : node_(o.node_) {
    if (node_ != nullptr) ++node_->refs;
  }
  RequestRef(RequestRef&& o) noexcept : node_(o.node_) { o.node_ = nullptr; }
  RequestRef& operator=(const RequestRef& o) noexcept {
    RequestRef(o).swap(*this);
    return *this;
  }
  RequestRef& operator=(RequestRef&& o) noexcept {
    RequestRef(std::move(o)).swap(*this);
    return *this;
  }
  ~RequestRef() { reset(); }

  void reset() noexcept {
    if (node_ != nullptr && --node_->refs == 0) {
      detail::RequestArena* arena = node_->arena;
      if (arena->release(node_)) delete arena;
    }
    node_ = nullptr;
  }
  void swap(RequestRef& o) noexcept { std::swap(node_, o.node_); }

  Request* get() const noexcept { return node_ ? &node_->req : nullptr; }
  Request& operator*() const noexcept { return node_->req; }
  Request* operator->() const noexcept { return &node_->req; }
  explicit operator bool() const noexcept { return node_ != nullptr; }

 private:
  friend class RequestPool;
  explicit RequestRef(detail::RequestNode* n) noexcept : node_(n) {}

  detail::RequestNode* node_ = nullptr;
};

static_assert(sizeof(RequestRef) == 8, "a request handle is one pointer");

/// Per-run source of requests. Each workload driver owns one and makes every
/// request it issues here; a freed request's slot is reused LIFO, and the
/// pool grows through operator new one fixed-size chunk at a time.
class RequestPool {
 public:
  RequestPool() : arena_(new detail::RequestArena) {}
  RequestPool(const RequestPool&) = delete;
  RequestPool& operator=(const RequestPool&) = delete;
  ~RequestPool() {
    if (arena_->live == 0)
      delete arena_;
    else
      arena_->orphaned = true;  // the last live handle frees it
  }

  /// A fresh, default-initialised request.
  RequestRef make() { return RequestRef(arena_->acquire()); }

  /// Requests some handle still refers to (0 after a run has drained).
  std::size_t live() const { return arena_->live; }
  /// Request slots ever allocated (the pool's high-water mark).
  std::size_t capacity() const {
    return arena_->chunks.size() * detail::RequestArena::kChunk;
  }

 private:
  detail::RequestArena* arena_;
};

}  // namespace ntier::proto
