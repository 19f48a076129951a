#include "control/overload.h"

namespace ntier::control {

const char* to_string(OverloadMode m) {
  switch (m) {
    case OverloadMode::kNone: return "none";
    case OverloadMode::kDeadline: return "deadline";
    case OverloadMode::kAdmission: return "admission";
    case OverloadMode::kCodel: return "codel";
    case OverloadMode::kFull: return "full";
  }
  return "?";
}

bool parse_overload_mode(const std::string& s, OverloadMode* out) {
  if (s == "none") *out = OverloadMode::kNone;
  else if (s == "deadline") *out = OverloadMode::kDeadline;
  else if (s == "admission") *out = OverloadMode::kAdmission;
  else if (s == "codel") *out = OverloadMode::kCodel;
  else if (s == "full") *out = OverloadMode::kFull;
  else return false;
  return true;
}

void OverloadStats::shed(proto::Request& req, proto::ShedReason reason,
                         double avoided_ms) {
  req.shed = reason;
  wasted_work_avoided_ms += avoided_ms;
  switch (reason) {
    case proto::ShedReason::kAdmission: ++admission_sheds; break;
    case proto::ShedReason::kBrownout: ++brownout_sheds; break;
    case proto::ShedReason::kDeadlineExpired: ++deadline_sheds; break;
    case proto::ShedReason::kSojourn: ++sojourn_sheds; break;
    case proto::ShedReason::kRecovery: ++recovery_sheds; break;
    case proto::ShedReason::kNone: break;
  }
}

OverloadConfig make_overload(OverloadMode mode, sim::SimTime budget) {
  OverloadConfig c;
  c.mode = mode;
  c.deadline_budget = budget;
  switch (mode) {
    case OverloadMode::kNone:
      break;
    case OverloadMode::kDeadline:
      c.deadlines = true;
      break;
    case OverloadMode::kAdmission:
      c.admission = true;
      c.brownout = true;
      break;
    case OverloadMode::kCodel:
      c.codel = true;
      break;
    case OverloadMode::kFull:
      c.deadlines = true;
      c.admission = true;
      c.codel = true;
      c.brownout = true;
      break;
  }
  // Every enforcing mode stamps deadlines so goodput is always measurable
  // against the same budget (a baseline cell sets stamp_deadlines itself).
  c.stamp_deadlines = c.any();
  return c;
}

}  // namespace ntier::control
