#pragma once

#include <array>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "metrics/histogram.h"
#include "metrics/time_series.h"
#include "proto/request.h"
#include "sim/time.h"

namespace ntier::metrics {

/// How a request's life ended.
enum class RequestOutcome : std::uint8_t {
  kOk,            // response delivered to the client
  kDropped,       // connection attempts exhausted (all retransmissions lost)
  kBalancerError, // the load balancer found no usable backend
  kInFlight,      // still outstanding when the run ended
};

/// One completed client interaction, as the client experienced it.
struct RequestRecord {
  std::uint64_t id = 0;
  std::uint16_t interaction = 0;   // index into the workload's interaction table
  std::int16_t apache = -1;        // front-end that (eventually) served it
  std::int16_t tomcat = -1;        // backend that served it (-1 if none)
  std::uint8_t retransmissions = 0;
  RequestOutcome outcome = RequestOutcome::kOk;
  sim::SimTime start;              // first connection attempt
  sim::SimTime end;                // response received (or failure decided)
  // Per-hop timestamps (zero when the request never reached the hop).
  sim::SimTime accepted_at;        // Apache worker picked it up
  sim::SimTime assigned_at;        // balancer yielded an endpoint
  sim::SimTime backend_done_at;    // backend response back at the Apache
  // Overload control: the stamped absolute deadline (zero = none), the
  // priority class, and which tier (if any) shed the request.
  sim::SimTime deadline;
  std::uint8_t priority = 1;
  proto::ShedReason shed = proto::ShedReason::kNone;
  // KV data tier: total quorum wait across the request's round trips, and
  // the share accrued while the touched shard was degraded (zero in MySQL
  // mode or when no replica was down).
  double kv_wait_ms = 0;
  double kv_degraded_ms = 0;

  double response_ms() const { return (end - start).to_millis(); }
  /// Goodput criterion: completed, and within the deadline when one was
  /// stamped (an un-deadlined completion always counts).
  bool within_deadline() const {
    return outcome == RequestOutcome::kOk &&
           (deadline == sim::SimTime::zero() || end <= deadline);
  }
};

/// Client-side bookkeeping for a whole run: latency histogram, point-in-time
/// response-time series, VLRT-per-window counts, and (optionally) the full
/// per-request trace. Thresholds follow the paper: VLRT > 1000 ms, "normal"
/// < 10 ms.
class RequestLog {
 public:
  static constexpr double kVlrtThresholdMs = 1000.0;
  static constexpr double kNormalThresholdMs = 10.0;

  explicit RequestLog(sim::SimTime window = sim::SimTime::millis(50),
                      bool keep_records = false)
      : window_(window),
        keep_records_(keep_records),
        rt_series_(window),
        vlrt_series_(window) {}

  void on_complete(const RequestRecord& r);

  // -- aggregates -----------------------------------------------------------
  std::int64_t completed() const { return histogram_.count(); }
  std::int64_t dropped() const { return dropped_; }
  std::int64_t balancer_errors() const { return balancer_errors_; }
  std::int64_t total_retransmissions() const { return retransmissions_; }
  /// Completions that met their deadline (== completed() when no deadlines
  /// were stamped) — the numerator of goodput.
  std::int64_t completed_within_deadline() const { return within_deadline_; }
  /// Completions that arrived after their stamped deadline.
  std::int64_t missed_deadline() const {
    return completed() - within_deadline_;
  }
  /// Requests whose terminal outcome was a shed by the overload layer,
  /// by reason (kNone slot unused).
  std::int64_t shed_count(proto::ShedReason r) const {
    return sheds_[static_cast<std::size_t>(r)];
  }
  std::int64_t total_sheds() const {
    std::int64_t total = 0;
    for (auto s : sheds_) total += s;
    return total;
  }

  double mean_response_ms() const { return histogram_.mean(); }
  double percentile_ms(double p) const { return histogram_.percentile(p); }
  std::int64_t vlrt_count() const { return histogram_.count_above(kVlrtThresholdMs); }
  double vlrt_fraction() const { return histogram_.fraction_above(kVlrtThresholdMs); }
  double normal_fraction() const { return histogram_.fraction_below(kNormalThresholdMs); }

  const LatencyHistogram& histogram() const { return histogram_; }
  /// Per-window response-time stats (avg/max), keyed by completion time.
  const TimeSeries& response_time_series() const { return rt_series_; }
  /// Per-window count of VLRT completions — the paper's Fig. 2(a)/6(a)/7(a).
  const TimeSeries& vlrt_series() const { return vlrt_series_; }

  const std::vector<RequestRecord>& records() const { return records_; }

  /// One formatted row of Table I.
  std::string summary_row(const std::string& label) const;

 private:
  sim::SimTime window_;
  bool keep_records_;
  LatencyHistogram histogram_;
  TimeSeries rt_series_;
  TimeSeries vlrt_series_;
  std::vector<RequestRecord> records_;
  std::int64_t dropped_ = 0;
  std::int64_t balancer_errors_ = 0;
  std::int64_t retransmissions_ = 0;
  std::int64_t within_deadline_ = 0;
  std::array<std::int64_t, 6> sheds_{};  // indexed by proto::ShedReason
};

}  // namespace ntier::metrics
