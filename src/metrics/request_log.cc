#include "metrics/request_log.h"

#include <cstdio>

namespace ntier::metrics {

void RequestLog::on_complete(const RequestRecord& r) {
  retransmissions_ += r.retransmissions;
  if (r.within_deadline()) ++within_deadline_;
  if (r.shed != proto::ShedReason::kNone)
    ++sheds_[static_cast<std::size_t>(r.shed)];
  switch (r.outcome) {
    case RequestOutcome::kDropped:
      ++dropped_;
      break;
    case RequestOutcome::kBalancerError:
      ++balancer_errors_;
      break;
    case RequestOutcome::kInFlight:
      break;  // not counted: the run ended first
    case RequestOutcome::kOk: {
      const double ms = r.response_ms();
      histogram_.record(ms);
      rt_series_.record(r.end, ms);
      if (ms > kVlrtThresholdMs) vlrt_series_.record(r.end, 1.0);
      break;
    }
  }
  if (keep_records_) records_.push_back(r);
}

std::string RequestLog::summary_row(const std::string& label) const {
  char buf[256];
  std::snprintf(buf, sizeof(buf), "%-44s %10lld %12.2f %10.2f%% %10.2f%%",
                label.c_str(), static_cast<long long>(completed()),
                mean_response_ms(), 100.0 * vlrt_fraction(),
                100.0 * normal_fraction());
  return buf;
}

}  // namespace ntier::metrics
