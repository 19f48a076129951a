#pragma once

#include <cstdint>
#include <string>

#include "experiment/experiment.h"

namespace perf {

/// FNV-1a over the simulated outcome, read through stable public accessors
/// only: the request log's counters, the raw bits of its mean and
/// p50/p99/p99.9, the VLRT count, every response-time window, and the
/// client-population and replayer counters. Summary JSON and event counts
/// are deliberately left out, so a serializer rewrite or a scheduler change
/// that keeps behaviour does not change the digest.
std::uint64_t outcome_digest(const ntier::experiment::Experiment& e);

std::string to_hex(std::uint64_t v);

}  // namespace perf
