#pragma once

#include "proto/request.h"
#include "sim/callback.h"

namespace ntier::proto {

/// Client-visible surface of a front-end (web) server.
///
/// `try_submit` models opening a fresh connection (the RUBBoS clients do not
/// keep connections alive): it returns false when the listen backlog is full
/// — the SYN is silently dropped and the *client* discovers this via its
/// retransmission timer, which is how millibottlenecks turn into multi-second
/// VLRT requests.
class FrontEnd {
 public:
  virtual ~FrontEnd() = default;

  /// `respond(req, ok)` fires when the server finishes the request; ok=false
  /// means the server gave up internally (balancer error / 503).
  using RespondFn = sim::Callback<void(const RequestRef&, bool ok)>;

  virtual bool try_submit(const RequestRef& req, RespondFn respond) = 0;
};

}  // namespace ntier::proto
