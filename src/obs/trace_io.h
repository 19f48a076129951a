#pragma once

#include <iosfwd>
#include <optional>
#include <string>
#include <vector>

#include "obs/trace.h"

namespace ntier::obs {

/// Serialisation formats for a collected trace.
enum class TraceFormat {
  kJsonl,   // one event per line — the ntier_trace analyzer's input
  kChrome,  // Chrome trace-event JSON, loadable in Perfetto / chrome://tracing
};

/// Parse "jsonl" / "chrome" (as accepted by --trace-format).
std::optional<TraceFormat> parse_trace_format(const std::string& s);

/// One event per line, fixed field order:
///   {"t_ns":N,"kind":"...","tier":"...","node":N,"worker":N,"req":N,
///    "value":V,"aux":N}
/// The byte stream is a pure function of the event sequence, so a
/// deterministic run yields a byte-identical file (the determinism test
/// relies on this).
void write_jsonl(std::ostream& os, const TraceCollector& trace);

/// Chrome trace-event JSON: instant events on one track per tier/server
/// ("pid" = tier, "tid" = server/worker lane, named via metadata events);
/// pdflush/stall episodes become B/E duration slices on their node's track
/// and backend service becomes per-request async spans.
void write_chrome_json(std::ostream& os, const TraceCollector& trace);

void write_trace(std::ostream& os, const TraceCollector& trace,
                 TraceFormat format);

/// Read a JSONL trace back (the inverse of write_jsonl). Unknown kinds,
/// malformed lines, ids out of their field's range and non-finite values
/// raise std::runtime_error naming the line number.
std::vector<TraceEvent> read_jsonl(std::istream& is);

/// Convenience: read a JSONL trace from a file path.
std::vector<TraceEvent> read_jsonl_file(const std::string& path);

}  // namespace ntier::obs
