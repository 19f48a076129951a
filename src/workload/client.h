#pragma once

#include <cstdint>
#include <vector>

#include "metrics/request_log.h"
#include "net/link.h"
#include "net/retransmit.h"
#include "obs/trace.h"
#include "proto/frontend.h"
#include "sim/simulation.h"
#include "sim/slot_table.h"
#include "workload/rubbos.h"

namespace ntier::workload {

/// Closed-loop client parameters. The paper drives 70 000 clients from
/// 8 client nodes with RUBBoS's think-time model; the scaled default keeps
/// the same offered load with fewer (faster-thinking) clients.
/// Mean lengths of the burst and normal phases of bursty arrivals
/// (ClientParams::bursty); both are exponentially distributed.
inline constexpr sim::SimTime kBurstOnMean = sim::SimTime::millis(400);
inline constexpr sim::SimTime kBurstOffMean = sim::SimTime::seconds(4);

struct ClientParams {
  int num_clients = 70'000;
  sim::SimTime think_mean = sim::SimTime::seconds(7);
  /// Clients issue their first request uniformly inside this window so the
  /// system starts near steady state instead of with a thundering herd.
  sim::SimTime ramp = sim::SimTime::seconds(7);
  /// Completions before this instant are not recorded (warm-up).
  sim::SimTime warmup = sim::SimTime::zero();
  net::RetransmitSchedule retransmit;
  /// Sticky sessions: after the first successful interaction a client tags
  /// every later request with the Tomcat that served it (mod_jk jvmRoute).
  bool sticky_sessions = false;
  /// Bursty arrivals (one of the paper's cited millibottleneck causes): the
  /// whole population alternates between normal and burst phases; during a
  /// burst, think times are divided by `burst_multiplier`.
  bool bursty = false;
  double burst_multiplier = 4.0;
  /// Overload control: response-time budget stamped as an absolute deadline
  /// on every request (zero = no deadlines, the seed behaviour).
  sim::SimTime deadline_budget;
};

/// The client tier: each client loops {think, pick interaction, connect —
/// retrying dropped attempts on the retransmission schedule — await
/// response}. Clients are statically partitioned across the front-ends
/// exactly as the paper wires client nodes to Apaches.
class ClientPopulation {
 public:
  ClientPopulation(sim::Simulation& simu, ClientParams params,
                   const RubbosWorkload& workload,
                   std::vector<proto::FrontEnd*> frontends,
                   metrics::RequestLog& log);

  ClientPopulation(const ClientPopulation&) = delete;
  ClientPopulation& operator=(const ClientPopulation&) = delete;

  /// Schedule every client's first request. Call once before running.
  void start();

  /// Stop issuing new requests (in-flight ones drain normally). The chaos
  /// harness calls this, then runs the simulation on so it can assert
  /// in_flight() == 0 — request conservation — once the drain settles.
  void quiesce() { quiesced_ = true; }
  bool quiesced() const { return quiesced_; }

  /// The client↔Apache link, exposed for fault injection. Injected loss is
  /// applied to connect attempts (a lost SYN is recovered by the
  /// retransmission schedule, like a silent backlog drop).
  net::Link& link() { return link_; }

  /// Observation hook fired at every issued request (arrival-trace
  /// recording); set before start(). Sees the fully-materialised request so
  /// recorders can capture the data key and priority class too.
  using IssueHook =
      std::function<void(sim::SimTime at, const proto::Request& req)>;
  void set_issue_hook(IssueHook hook) { issue_hook_ = std::move(hook); }

  /// Attach the cross-tier event collector (null disables). Emits
  /// client_send / syn_retransmit / client_done events with tier=kClient,
  /// node=targeted Apache, worker=client id.
  void set_trace(obs::TraceCollector* trace) { trace_events_ = trace; }

  // -- counters (request conservation checks) --------------------------------
  std::uint64_t issued() const { return issued_; }
  std::uint64_t completed_ok() const { return completed_ok_; }
  std::uint64_t failed() const { return failed_; }      // balancer errors
  std::uint64_t dropped() const { return dropped_; }    // retries exhausted
  std::uint64_t in_flight() const {
    return issued_ - completed_ok_ - failed_ - dropped_;
  }
  std::uint64_t connection_drops() const { return connection_drops_; }
  /// Client-side re-attempts after a retriable admission 503.
  std::uint64_t shed_retries() const { return shed_retries_; }
  bool in_burst() const { return in_burst_; }
  /// Where this population makes its requests; live() is 0 once every
  /// issued request has settled and nothing else holds it.
  const proto::RequestPool& requests() const { return requests_; }

 private:
  /// A client's in-flight request, from issue to finish. The closed loop
  /// gives each client at most one, so the table holds only the requests
  /// actually in flight; every continuation captures only the handle.
  struct Flight {
    proto::RequestRef req;
    std::uint32_t client = 0;
    std::size_t tries = 0;  // SYN retransmissions of the current attempt
  };
  using FlightHandle = sim::SlotTable<Flight>::Handle;

  void issue(std::uint32_t client);
  /// Send the flight's SYN (a fresh connection).
  void attempt(FlightHandle f);
  /// The SYN reached the front-end: accepted, or silently dropped.
  void on_syn_arrival(FlightHandle f);
  void on_response(FlightHandle f, bool ok);
  void connect_dropped(FlightHandle f);
  void finish(FlightHandle f, metrics::RequestOutcome outcome);
  void think_then_next(std::uint32_t client);
  void toggle_burst();

  sim::Simulation& sim_;
  ClientParams params_;
  const RubbosWorkload& workload_;
  std::vector<proto::FrontEnd*> frontends_;
  metrics::RequestLog& log_;
  net::Link link_;
  sim::Rng rng_;
  // Declared before everything that holds request handles, so it is
  // destroyed after them (a pool outlived by handles also stays safe).
  proto::RequestPool requests_;

  std::vector<std::int16_t> routes_;  // per-client sticky route
  sim::SlotTable<Flight> flights_;
  IssueHook issue_hook_;
  obs::TraceCollector* trace_events_ = nullptr;
  bool in_burst_ = false;
  bool quiesced_ = false;
  std::uint64_t next_request_id_ = 1;
  std::uint64_t issued_ = 0;
  std::uint64_t completed_ok_ = 0;
  std::uint64_t failed_ = 0;
  std::uint64_t dropped_ = 0;
  std::uint64_t connection_drops_ = 0;
  std::uint64_t shed_retries_ = 0;
};

}  // namespace ntier::workload
