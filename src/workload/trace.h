#pragma once

#include <cstdint>
#include <istream>
#include <memory>
#include <ostream>
#include <string>
#include <string_view>
#include <vector>

#include "metrics/request_log.h"
#include "net/link.h"
#include "net/retransmit.h"
#include "proto/frontend.h"
#include "sim/simulation.h"
#include "sim/slot_table.h"
#include "workload/rubbos.h"

namespace ntier::workload {

/// One arrival of a request trace: who asked for what, when — and, in a
/// *rich* trace, which data key it touched and its brownout priority class,
/// so a replay drives the KV/cache tiers and the overload layer exactly as
/// recorded. `client` is 32-bit: a day of production traffic has far more
/// distinct users than a closed-loop population has slots. Fields are laid
/// out widest first, so a generated day of ~1M arrivals carries no padding.
struct ArrivalEvent {
  sim::SimTime at;
  std::uint64_t key = 0;
  std::uint32_t client = 0;
  std::uint16_t interaction = 0;
  std::uint8_t priority = 1;
};
static_assert(sizeof(ArrivalEvent) == 24);

/// A recorded (or generated) arrival trace: the open-loop counterpart of
/// the closed-loop client population. Stand-in for the production traces
/// the paper's methodology would consume; CSV round-trips byte-identically
/// so traces can be shipped, diffed and replayed.
///
/// Two schemas share one loader:
///   v2 lean:  "at_ns,client,interaction"              (add())
///   v2 rich:  "at_ns,client,interaction,key,priority" (add_rich())
/// Times are integer nanoseconds on disk — exactly the simulator's
/// representation.
class ArrivalTrace {
 public:
  void add(sim::SimTime at, std::uint32_t client, std::uint16_t interaction) {
    events_.push_back(
        ArrivalEvent{.at = at, .client = client, .interaction = interaction});
  }

  /// Record a full arrival: data key + brownout priority ride along and the
  /// trace switches to the rich on-disk schema.
  void add_rich(sim::SimTime at, std::uint32_t client,
                std::uint16_t interaction, std::uint64_t key,
                std::uint8_t priority) {
    events_.push_back(ArrivalEvent{.at = at,
                                   .key = key,
                                   .client = client,
                                   .interaction = interaction,
                                   .priority = priority});
    rich_ = true;
  }

  /// Pre-size for `n` arrivals. Reserved capacity that is never written is
  /// never resident, so a generous estimate costs address space only.
  void reserve(std::size_t n) { events_.reserve(n); }

  const std::vector<ArrivalEvent>& events() const { return events_; }
  std::size_t size() const { return events_.size(); }
  bool empty() const { return events_.empty(); }
  /// True when the trace carries keys/priorities (rich schema). Replays of
  /// lean traces leave the workload generator's own draws in place.
  bool rich() const { return rich_; }

  /// True when arrivals are in non-decreasing time order (the replayer's
  /// precondition).
  bool sorted() const;

  /// Restore arrival-time order (recording is already ordered; edits and
  /// merges may not be). Stable: same-instant arrivals keep their order.
  void sort();

  /// CSV with exact integer-nanosecond times (see class comment for the
  /// schema). save -> load -> save is byte-identical.
  void save(std::ostream& os) const;
  static ArrivalTrace load(std::istream& is);

  /// Parse CSV text directly. `origin` labels error messages
  /// ("file:row:col: ...").
  static ArrivalTrace parse(std::string_view text,
                            const std::string& origin = "<trace>");

  /// File round-trip. load_file memory-maps the file and parses it with
  /// std::from_chars — no stream or locale machinery on the hot path.
  void save_file(const std::string& path) const;
  static ArrivalTrace load_file(const std::string& path);

  /// Uniformly time-scale the trace (factor 0.5 replays at 2x the recorded
  /// rate). Rejects non-positive and non-finite factors.
  void scale_time(double factor);

 private:
  std::vector<ArrivalEvent> events_;
  bool rich_ = false;
};

/// Replayer tunables (the open-loop analogue of ClientParams).
struct ReplayParams {
  net::RetransmitSchedule retransmit;
  /// Client-side patience: a request unanswered this long is abandoned and
  /// logged as dropped (a late response is ignored). Zero = wait forever.
  sim::SimTime client_timeout;
  /// Completions before this instant are not recorded (warm-up).
  sim::SimTime warmup;
  /// Overload control: response-time budget stamped as an absolute deadline
  /// on every request (zero = no deadlines).
  sim::SimTime deadline_budget;
};

/// Open-loop replayer: issues the trace's requests against the front-ends
/// at their recorded instants, with the same SYN-retransmission behaviour
/// as the closed-loop clients. Unlike the closed loop, arrivals do not slow
/// down when the system does — the standard trace-replay caveat, useful
/// precisely because it preserves burst shapes.
///
/// Arrivals are streamed: each firing schedules only the next one, so the
/// event queue holds O(1) replayer events regardless of trace length (the
/// seed implementation dumped the whole trace into the queue up front).
class TraceReplayer {
 public:
  TraceReplayer(sim::Simulation& simu, const ArrivalTrace& trace,
                const RubbosWorkload& workload,
                std::vector<proto::FrontEnd*> frontends,
                metrics::RequestLog& log, ReplayParams params = {});

  TraceReplayer(const TraceReplayer&) = delete;
  TraceReplayer& operator=(const TraceReplayer&) = delete;

  /// Schedule the first arrival. Call once before running the simulation.
  void start();

  // -- counters (request conservation checks) --------------------------------
  std::uint64_t issued() const { return issued_; }
  std::uint64_t completed_ok() const { return completed_ok_; }
  std::uint64_t dropped() const { return dropped_; }
  std::uint64_t failed() const { return failed_; }
  std::uint64_t connection_drops() const { return connection_drops_; }
  /// Requests the client gave up on (client_timeout elapsed, no response).
  std::uint64_t abandoned() const { return abandoned_; }
  /// The client-side link every replayed SYN and response crosses (the
  /// chaos harness injects link faults here).
  net::Link& link() { return link_; }
  std::uint64_t in_flight() const {
    return issued_ - completed_ok_ - failed_ - dropped_ - abandoned_;
  }
  /// Where the replayed requests are made; live() is 0 once every issued
  /// request has settled and nothing else holds it.
  const proto::RequestPool& requests() const { return requests_; }

 private:
  /// One replayed request, alive until its last event (response, final
  /// retransmit, or a backoff that finds it abandoned) has run. Settlement
  /// is first of {response, retransmit exhaustion, abandonment timer}; the
  /// others become no-ops.
  struct Flight {
    proto::RequestRef req;
    sim::EventId timer = sim::kInvalidEventId;
    bool settled = false;
  };
  using FlightHandle = sim::SlotTable<Flight>::Handle;

  void schedule_next();
  void issue(const ArrivalEvent& ev);
  void attempt(FlightHandle f, std::size_t tries);
  void on_syn_arrival(FlightHandle f, std::size_t tries);
  /// The SYN of attempt `tries` was lost: retransmit or give up.
  void connect_dropped(FlightHandle f, std::size_t tries);
  void on_abandon_timer(FlightHandle f);
  /// Settle with `outcome` unless already settled; frees the flight.
  void finish(FlightHandle f, metrics::RequestOutcome outcome);
  void record(const proto::RequestRef& req, metrics::RequestOutcome outcome);

  sim::Simulation& sim_;
  const ArrivalTrace& trace_;
  const RubbosWorkload& workload_;
  std::vector<proto::FrontEnd*> frontends_;
  metrics::RequestLog& log_;
  ReplayParams params_;
  net::Link link_;
  sim::Rng rng_;
  proto::RequestPool requests_;

  sim::SlotTable<Flight> flights_;
  std::size_t next_ = 0;  // next trace index to issue
  bool started_ = false;
  std::uint64_t next_id_ = 1;
  std::uint64_t issued_ = 0;
  std::uint64_t completed_ok_ = 0;
  std::uint64_t dropped_ = 0;
  std::uint64_t failed_ = 0;
  std::uint64_t connection_drops_ = 0;
  std::uint64_t abandoned_ = 0;
};

}  // namespace ntier::workload
