#include "obs/trace_io.h"

#include <array>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <map>
#include <ostream>
#include <sstream>
#include <stdexcept>

namespace ntier::obs {

std::optional<TraceFormat> parse_trace_format(const std::string& s) {
  if (s == "jsonl") return TraceFormat::kJsonl;
  if (s == "chrome" || s == "perfetto") return TraceFormat::kChrome;
  return std::nullopt;
}

namespace {

// Shortest round-trip rendering (std::to_chars), so the emitted bytes are a
// pure function of the double's value.
void append_double(std::string& out, double v) {
  std::array<char, 32> buf;
  auto [ptr, ec] = std::to_chars(buf.data(), buf.data() + buf.size(), v);
  if (ec != std::errc()) {
    out += "0";
    return;
  }
  out.append(buf.data(), ptr);
}

void append_int(std::string& out, std::int64_t v) {
  std::array<char, 24> buf;
  auto [ptr, ec] = std::to_chars(buf.data(), buf.data() + buf.size(), v);
  (void)ec;
  out.append(buf.data(), ptr);
}

}  // namespace

void write_jsonl(std::ostream& os, const TraceCollector& trace) {
  std::string line;
  trace.for_each([&os, &line](const TraceEvent& e) {
    line.clear();
    line += "{\"t_ns\":";
    append_int(line, e.at.ns());
    line += ",\"kind\":\"";
    line += to_string(e.kind);
    line += "\",\"tier\":\"";
    line += to_string(e.tier);
    line += "\",\"node\":";
    append_int(line, e.node);
    line += ",\"worker\":";
    append_int(line, e.worker);
    line += ",\"req\":";
    append_int(line, static_cast<std::int64_t>(e.request));
    line += ",\"value\":";
    append_double(line, e.value);
    line += ",\"aux\":";
    append_int(line, e.aux);
    line += "}\n";
    os << line;
  });
}

namespace {

// Stable track ("tid") for one lane within a tier: one per server, plus one
// per (balancer, candidate-worker) pair so each get_endpoint lane is its own
// Perfetto row.
int lane_of(const TraceEvent& e) {
  const int node = e.node < 0 ? 0 : e.node;
  if (e.tier == Tier::kBalancer && e.worker >= 0)
    return 1 + node * 64 + e.worker;
  return 1 + node * 64;
}

std::string lane_name(const TraceEvent& e) {
  std::string name = to_string(e.tier);
  name += std::to_string((e.node < 0 ? 0 : e.node) + 1);
  if (e.tier == Tier::kBalancer && e.worker >= 0)
    name += "->tomcat" + std::to_string(e.worker + 1);
  return name;
}

}  // namespace

void write_chrome_json(std::ostream& os, const TraceCollector& trace) {
  os << "{\"traceEvents\":[\n";
  bool first = true;
  auto sep = [&os, &first] {
    if (!first) os << ",\n";
    first = false;
  };

  // Metadata: name the tier "processes" and each server/worker lane.
  std::map<int, const char*> pids;
  std::map<std::pair<int, int>, std::string> lanes;
  trace.for_each([&pids, &lanes](const TraceEvent& e) {
    const int pid = static_cast<int>(e.tier) + 1;
    pids.emplace(pid, to_string(e.tier));
    lanes.emplace(std::make_pair(pid, lane_of(e)), lane_name(e));
  });
  for (const auto& [pid, name] : pids) {
    sep();
    os << "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":" << pid
       << ",\"tid\":0,\"args\":{\"name\":\"" << name << "\"}}";
  }
  for (const auto& [key, name] : lanes) {
    sep();
    os << "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":" << key.first
       << ",\"tid\":" << key.second << ",\"args\":{\"name\":\"" << name
       << "\"}}";
  }

  char ts[32];
  trace.for_each([&](const TraceEvent& e) {
    const int pid = static_cast<int>(e.tier) + 1;
    std::snprintf(ts, sizeof(ts), "%.3f",
                  static_cast<double>(e.at.ns()) / 1e3);  // microseconds
    const char* name = to_string(e.kind);
    sep();
    switch (e.kind) {
      case EventKind::kPdflushStart:
      case EventKind::kStallStart:
        os << "{\"name\":\"" << name << "\",\"ph\":\"B\",\"ts\":" << ts
           << ",\"pid\":" << pid << ",\"tid\":" << lane_of(e) << "}";
        break;
      case EventKind::kPdflushStop:
      case EventKind::kStallStop:
        os << "{\"name\":\"" << name << "\",\"ph\":\"E\",\"ts\":" << ts
           << ",\"pid\":" << pid << ",\"tid\":" << lane_of(e) << "}";
        break;
      case EventKind::kServiceStart:
        os << "{\"name\":\"service\",\"cat\":\"req\",\"ph\":\"b\",\"id\":"
           << e.request << ",\"ts\":" << ts << ",\"pid\":" << pid
           << ",\"tid\":" << lane_of(e) << "}";
        break;
      case EventKind::kServiceEnd:
        os << "{\"name\":\"service\",\"cat\":\"req\",\"ph\":\"e\",\"id\":"
           << e.request << ",\"ts\":" << ts << ",\"pid\":" << pid
           << ",\"tid\":" << lane_of(e) << "}";
        break;
      case EventKind::kLbValue:
      case EventKind::kIoWait: {
        os << "{\"name\":\"" << name << "\",\"ph\":\"C\",\"ts\":" << ts
           << ",\"pid\":" << pid << ",\"tid\":" << lane_of(e)
           << ",\"args\":{\"value\":" << e.value << "}}";
        break;
      }
      default:
        os << "{\"name\":\"" << name
           << "\",\"ph\":\"i\",\"s\":\"t\",\"ts\":" << ts << ",\"pid\":" << pid
           << ",\"tid\":" << lane_of(e) << ",\"args\":{\"req\":" << e.request
           << ",\"value\":" << e.value << ",\"aux\":" << e.aux << "}}";
        break;
    }
  });
  os << "\n]}\n";
}

void write_trace(std::ostream& os, const TraceCollector& trace,
                 TraceFormat format) {
  switch (format) {
    case TraceFormat::kJsonl: write_jsonl(os, trace); return;
    case TraceFormat::kChrome: write_chrome_json(os, trace); return;
  }
}

namespace {

[[noreturn]] void parse_fail(std::size_t line_no, const std::string& why) {
  throw std::runtime_error("trace line " + std::to_string(line_no) + ": " +
                           why);
}

// Extract the raw token after `"key":` (up to the next ',' or '}').
std::string_view raw_field(const std::string& line, const char* key,
                           std::size_t line_no) {
  const std::string needle = std::string("\"") + key + "\":";
  const auto pos = line.find(needle);
  if (pos == std::string::npos) parse_fail(line_no, std::string("missing ") + key);
  std::size_t begin = pos + needle.size();
  std::size_t end = begin;
  bool in_string = false;
  for (; end < line.size(); ++end) {
    const char c = line[end];
    if (c == '"') in_string = !in_string;
    if (!in_string && (c == ',' || c == '}')) break;
  }
  return std::string_view(line).substr(begin, end - begin);
}

// An integer field that must fit T: a trace from another writer (or a
// corrupted one) must not wrap node 70000 into 4464.
template <typename T>
T int_field(const std::string& line, const char* key, std::size_t line_no) {
  const auto raw = raw_field(line, key, line_no);
  T v = 0;
  auto [ptr, ec] = std::from_chars(raw.data(), raw.data() + raw.size(), v);
  if (ec == std::errc::result_out_of_range)
    parse_fail(line_no, std::string(key) + " out of range");
  if (ec != std::errc() || ptr != raw.data() + raw.size())
    parse_fail(line_no, std::string("bad integer for ") + key);
  return v;
}

// from_chars, not std::stod: no locale, and the finite check rejects the
// "nan"/"inf" spellings the writer never produces.
double double_field(const std::string& line, const char* key,
                    std::size_t line_no) {
  const auto raw = raw_field(line, key, line_no);
  double v = 0;
  auto [ptr, ec] = std::from_chars(raw.data(), raw.data() + raw.size(), v);
  if (ec != std::errc() || ptr != raw.data() + raw.size() || !std::isfinite(v))
    parse_fail(line_no, std::string("bad number for ") + key);
  return v;
}

std::string string_field(const std::string& line, const char* key,
                         std::size_t line_no) {
  auto raw = raw_field(line, key, line_no);
  if (raw.size() < 2 || raw.front() != '"' || raw.back() != '"')
    parse_fail(line_no, std::string("bad string for ") + key);
  return std::string(raw.substr(1, raw.size() - 2));
}

std::optional<EventKind> parse_kind(const std::string& s) {
  for (int k = 0; k <= static_cast<int>(EventKind::kRecoveryIntervention);
       ++k) {
    const auto kind = static_cast<EventKind>(k);
    if (s == to_string(kind)) return kind;
  }
  return std::nullopt;
}

std::optional<Tier> parse_tier(const std::string& s) {
  for (int t = 0; t <= static_cast<int>(Tier::kCache); ++t) {
    const auto tier = static_cast<Tier>(t);
    if (s == to_string(tier)) return tier;
  }
  return std::nullopt;
}

}  // namespace

std::vector<TraceEvent> read_jsonl(std::istream& is) {
  std::vector<TraceEvent> out;
  std::string line;
  std::size_t line_no = 0;
  while (std::getline(is, line)) {
    ++line_no;
    if (line.empty()) continue;
    TraceEvent e;
    e.at = sim::SimTime::nanos(int_field<std::int64_t>(line, "t_ns", line_no));
    const auto kind = parse_kind(string_field(line, "kind", line_no));
    if (!kind) parse_fail(line_no, "unknown kind");
    e.kind = *kind;
    const auto tier = parse_tier(string_field(line, "tier", line_no));
    if (!tier) parse_fail(line_no, "unknown tier");
    e.tier = *tier;
    e.node = int_field<std::int16_t>(line, "node", line_no);
    e.worker = int_field<std::int32_t>(line, "worker", line_no);
    // The writer renders the id as int64.
    e.request =
        static_cast<std::uint64_t>(int_field<std::int64_t>(line, "req", line_no));
    e.value = double_field(line, "value", line_no);
    e.aux = int_field<std::int32_t>(line, "aux", line_no);
    out.push_back(e);
  }
  return out;
}

std::vector<TraceEvent> read_jsonl_file(const std::string& path) {
  std::ifstream f(path);
  if (!f) throw std::runtime_error("cannot read trace file " + path);
  return read_jsonl(f);
}

}  // namespace ntier::obs
