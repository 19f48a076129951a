// bench_perf: the simulator's performance ledger.
//
//   bench_perf [--seed N] [--reps R] [--check]
//       Every workload, R untraced reps interleaved round-robin, then one
//       traced rep each. Prints every metric with its unit and writes
//       <out-dir>/bench_perf.json. --check runs at 1/10 duration with 2 reps
//       and fails unless digests agree and every metric is present.
//   bench_perf --workload W --seed N --seconds S --trace 0|1
//       One workload. --trace 0 runs untraced reps for about S seconds and
//       reports the end-to-end metrics; --trace 1 runs one untraced and one
//       traced rep and reports the per-layer metrics. The last stdout line
//       is one JSON object {correct, attempted, failed, metrics}.
//
// Every rep runs in a forked single-threaded child, so reps never share a
// heap, peak RSS is the child's own, and a crash or hang costs one rep.
// All timings come from spans the benchmark places around its own calls
// into src/ (set-up, Experiment::run, the layer drivers); per-layer self
// time comes from a SIGPROF sampler active only during the traced run.

#include <poll.h>
#include <signal.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iomanip>
#include <iostream>
#include <map>
#include <memory>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "alloc_count.h"
#include "digest.h"
#include "drivers.h"
#include "experiment/experiment.h"
#include "profiler.h"
#include "workload/trace_gen.h"
#include "workloads.h"

namespace perf {
namespace {

using Clock = std::chrono::steady_clock;
using ntier::experiment::Experiment;
using ntier::experiment::ExperimentConfig;
using ntier::sim::SimTime;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

double median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// Set-up repeats within a rep until this much time is spent (see
/// run_child), at most kMaxSetups times.
constexpr double kSetupBudgetS = 0.25;
constexpr std::size_t kMaxSetups = 100;

// -- metric catalog ---------------------------------------------------------

struct MetricDef {
  const char* name;
  const char* unit;
};

/// End-to-end metrics: host cost a user of the simulator sees, from the
/// untraced reps only. failed_run_share exists only in the full-set report;
/// single-workload runs report failures as the `failed` count.
const std::vector<MetricDef>& end_to_end_metrics() {
  static const std::vector<MetricDef> kDefs = {
      {"setup_s", "s"},           {"host_ms_per_sim_s", "ms"},
      {"host_ns_per_request", "ns"}, {"peak_rss_mb", "MB"},
      {"allocs_per_request", "count"},
  };
  return kDefs;
}

/// Modules whose sampled self time is reported as <module>.self_ns_per_req.
const std::vector<std::string>& self_time_modules() {
  static const std::vector<std::string> kModules = {
      "sim",      "os",      "lb",      "kv",      "cache",   "probe",
      "workload", "experiment", "obs",  "millib",  "recovery", "control",
      "metrics",  "server",  "proto",   "net",     "std",     "libc"};
  return kModules;
}

/// Per-layer metrics, from the traced rep and the layer drivers.
const std::vector<MetricDef>& per_layer_metrics() {
  static const std::vector<MetricDef> kDefs = [] {
    std::vector<MetricDef> d = {
        {"sim.events_per_req", "count"},
        {"sim.cancelled_share", "ratio"},
        {"sim.event_ns", "ns"},
        {"sim.allocs_per_event", "count"},
        {"os.tomcat_cpu_jobs_mean", "count"},
        {"os.cpu_job_ns", "ns"},
        {"os.allocs_per_job", "count"},
        {"kv.route_ns", "ns"},
        {"kv.allocs_per_route", "count"},
        {"cache.lookup_ns", "ns"},
        {"cache.allocs_per_op", "count"},
        {"workload.gen_s", "s"},
        {"workload.gen_ns_per_arrival", "ns"},
        {"workload.parse_ns_per_row", "ns"},
        {"experiment.build_s", "s"},
        {"control.sheds_per_kreq", "count"},
        {"net.retransmits_per_kreq", "count"},
        {"metrics.vlrt_fraction", "ratio"},
        {"metrics.p999_ms", "ms"},
        {"trace.overhead_share", "ratio"},
        {"trace.samples", "count"},
    };
    static std::vector<std::string> names;  // owns the generated names
    names.reserve(self_time_modules().size());
    for (const auto& m : self_time_modules())
      names.push_back(m + ".self_ns_per_req");
    for (const auto& n : names) d.push_back({n.c_str(), "ns"});
    return d;
  }();
  return kDefs;
}

bool is_self_time(const std::string& name) {
  return name.size() > 16 &&
         name.compare(name.size() - 16, 16, ".self_ns_per_req") == 0;
}

/// Table I, total_request + stock get_endpoint: the paper's VLRT share.
constexpr double kPaperVlrtPct = 5.33;

// -- JSON output ------------------------------------------------------------

std::string json_str(const std::string& s) {
  std::string out = "\"";
  for (const char ch : s) {
    const auto c = static_cast<unsigned char>(ch);
    if (c == '"' || c == '\\') {
      out += '\\';
      out += ch;
    } else if (c < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof buf, "\\u%04x", c);
      out += buf;
    } else {
      out += ch;
    }
  }
  return out + "\"";
}

std::string json_num(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

// -- spans ------------------------------------------------------------------

/// The benchmark's own spans around its calls into src/: name, start, end
/// (seconds since the rep began) and the enclosing span.
class Spans {
 public:
  struct Span {
    std::string name;
    double start = 0;
    double end = 0;
    int parent = -1;
  };

  void begin(std::string name) {
    const int parent = open_.empty() ? -1 : open_.back();
    spans_.push_back({std::move(name), seconds_since(t0_), 0, parent});
    open_.push_back(static_cast<int>(spans_.size()) - 1);
  }
  /// Closes the innermost span; returns its duration in seconds.
  double end() {
    Span& s = spans_[static_cast<std::size_t>(open_.back())];
    open_.pop_back();
    s.end = seconds_since(t0_);
    return s.end - s.start;
  }
  const std::vector<Span>& all() const { return spans_; }

 private:
  Clock::time_point t0_ = Clock::now();
  std::vector<Span> spans_;
  std::vector<int> open_;
};

// -- one rep (runs in the child) --------------------------------------------

struct RepSpec {
  std::string workload;
  std::uint64_t seed = 42;
  double scale = 1.0;
  bool traced = false;
  std::string trace_path;  // traced reps write their spans + samples here
};

/// Key/value lines the child sends back over its pipe.
class ChildOut {
 public:
  void put(const std::string& k, double v) {
    os_ << k << ' ' << json_num(v) << '\n';
  }
  void text(const std::string& k, const std::string& v) {
    os_ << k << ' ' << v << '\n';
  }
  std::string str() const { return os_.str(); }

 private:
  std::ostringstream os_;
};

/// A benchmark-scheduled periodic callback on the simulated clock, firing
/// at every multiple of `period` up to the horizon. Callbacks only read
/// state, so the outcome digest is unchanged; the ticker's own events are
/// subtracted from the event counts.
class Ticker {
 public:
  Ticker(Experiment& e, SimTime period, std::function<void()> fn)
      : e_(e), period_(period), fn_(std::move(fn)) {}
  Ticker(const Ticker&) = delete;
  Ticker& operator=(const Ticker&) = delete;

  void arm() { schedule(period_); }

  std::uint64_t fired = 0;
  std::uint64_t scheduled = 0;

 private:
  void schedule(SimTime at) {
    if (at > e_.config().duration) return;
    ++scheduled;
    e_.simulation().at(at, [this] {
      ++fired;
      fn_();
      schedule(e_.simulation().now() + period_);
    });
  }

  Experiment& e_;
  SimTime period_;
  std::function<void()> fn_;
};

/// What the traced rep's 10 ms probe reads: each Tomcat's PS CPU depth and
/// the replayer's in-flight count.
struct ProbeStats {
  double jobs_sum = 0;
  std::uint64_t jobs_samples = 0;
  std::uint64_t inflight_peak = 0;
  std::uint64_t events = 0;  // scheduled by the benchmark's tickers
  std::uint64_t events_fired = 0;
};

std::uint64_t requests_issued(const Experiment& e) {
  return e.clients().issued() + (e.replayer() ? e.replayer()->issued() : 0);
}

/// Request conservation and liveness; empty when the outcome is sane.
std::string check_outcome(const Experiment& e, std::size_t arrivals) {
  const auto& c = e.clients();
  if (c.completed_ok() + c.failed() + c.dropped() > c.issued())
    return "client counters settle more requests than were issued";
  if (const auto* r = e.replayer()) {
    if (r->issued() != arrivals) return "replayer did not issue every arrival";
    if (r->completed_ok() + r->dropped() + r->failed() + r->abandoned() >
        r->issued())
      return "replayer counters settle more requests than were issued";
  }
  if (requests_issued(e) == 0 || e.log().completed() == 0)
    return "no request completed";
  return {};
}

void write_trace_file(const RepSpec& spec, const Spans& spans,
                      const profiler::Report& prof) {
  std::ofstream f(spec.trace_path);
  if (!f) throw std::runtime_error("cannot write " + spec.trace_path);
  f << "{\"workload\": " << json_str(spec.workload) << ", \"seed\": "
    << spec.seed << ", \"spans\": [";
  for (std::size_t i = 0; i < spans.all().size(); ++i) {
    const auto& s = spans.all()[i];
    f << (i ? ", " : "") << "{\"name\": " << json_str(s.name)
      << ", \"start_s\": " << json_num(s.start) << ", \"end_s\": "
      << json_num(s.end) << ", \"parent\": " << s.parent << "}";
  }
  f << "], \"samples\": " << profiler::samples() << ", \"histogram\": {";
  bool first = true;
  for (const auto& [m, n] : prof.by_module) {
    f << (first ? "" : ", ") << json_str(m) << ": " << n;
    first = false;
  }
  f << "}, \"top_symbols\": [";
  for (std::size_t i = 0; i < prof.top_symbols.size(); ++i)
    f << (i ? ", " : "") << "{\"name\": " << json_str(prof.top_symbols[i].first)
      << ", \"samples\": " << prof.top_symbols[i].second << "}";
  f << "]}\n";
  if (!f) throw std::runtime_error("cannot write " + spec.trace_path);
}

/// Per-layer numbers of a traced rep: sampled self time, the layer drivers
/// shaped from this workload, and the simulated-model ratios.
profiler::Report per_layer(const RepSpec& spec, const ExperimentConfig& cfg,
                           Experiment& e, const ProbeStats& probe, double run_s,
                           std::uint64_t requests,
                           const ntier::workload::ArrivalTrace* day,
                           double gen_s, Spans& spans, ChildOut& out) {
  const double req = static_cast<double>(requests);
  const auto& sim = e.simulation();
  const double executed =
      static_cast<double>(sim.events_executed() - probe.events_fired);
  const double scheduled =
      static_cast<double>(sim.events_scheduled() - probe.events);
  out.put("sim.events_per_req", executed / req);
  out.put("sim.cancelled_share", 1.0 - executed / scheduled);
  const double jobs_mean =
      probe.jobs_samples
          ? probe.jobs_sum / static_cast<double>(probe.jobs_samples)
          : 0.0;
  out.put("os.tomcat_cpu_jobs_mean", jobs_mean);

  const auto& log = e.log();
  out.put("control.sheds_per_kreq",
          1000.0 * static_cast<double>(log.total_sheds()) / req);
  out.put("net.retransmits_per_kreq",
          1000.0 * static_cast<double>(log.total_retransmissions()) / req);
  out.put("metrics.vlrt_fraction", log.vlrt_fraction());
  out.put("metrics.p999_ms", log.percentile_ms(99.9));
  if (spec.workload == "paper_table1")
    out.put("metrics.paper_vlrt_error_pp",
            100.0 * log.vlrt_fraction() - kPaperVlrtPct);

  out.put("trace.samples", static_cast<double>(profiler::samples()));
  spans.begin("profile.resolve");
  const profiler::Report prof = profiler::resolve();
  spans.end();
  if (profiler::supported()) {
    double total = 0;
    for (const auto& [m, n] : prof.by_module) total += static_cast<double>(n);
    for (const auto& m : self_time_modules()) {
      const auto it = prof.by_module.find(m);
      const double n =
          it == prof.by_module.end() ? 0.0 : static_cast<double>(it->second);
      out.put(m + ".self_ns_per_req",
              total > 0 ? n / total * run_s * 1e9 / req : 0.0);
    }
  }

  // Layer drivers, each shaped from this workload.
  const std::uint64_t key_space =
      cfg.workload.key_space ? cfg.workload.key_space : 10'000;
  const auto spec_day = trace_spec(spec.workload, spec.seed, spec.scale);
  {
    spans.begin("driver.sim");
    const std::size_t population =
        cfg.replay_trace ? static_cast<std::size_t>(probe.inflight_peak)
                         : static_cast<std::size_t>(cfg.num_clients);
    const SimTime delay = spec_day
                              ? SimTime::from_seconds(spec_day->think_mean_s)
                              : cfg.think_mean;
    const auto c = drivers::event_heap(population, delay, spec.seed);
    spans.end();
    out.put("sim.event_ns", c.ns_per_op);
    out.put("sim.allocs_per_event", c.allocs_per_op);
  }
  {
    spans.begin("driver.os");
    const ntier::workload::RubbosWorkload wl(cfg.workload);
    const auto c = drivers::ps_cpu(
        cfg.cores, static_cast<std::size_t>(std::lround(jobs_mean)),
        wl.mean_tomcat_demand_ms(), spec.seed);
    spans.end();
    out.put("os.cpu_job_ns", c.ns_per_op);
    out.put("os.allocs_per_job", c.allocs_per_op);
  }
  {
    spans.begin("driver.kv");
    const auto c = drivers::kv_route(cfg.kv, key_space, cfg.workload.zipf_s,
                                     spec.seed);
    spans.end();
    out.put("kv.route_ns", c.ns_per_op);
    out.put("kv.allocs_per_route", c.allocs_per_op);
  }
  {
    spans.begin("driver.cache");
    const auto c = drivers::cache_ops(cfg.cache, key_space, cfg.workload.zipf_s,
                                      cfg.offered_rps(), spec.seed);
    spans.end();
    out.put("cache.lookup_ns", c.ns_per_op);
    out.put("cache.allocs_per_op", c.allocs_per_op);
  }
  {
    // A replay workload's generation cost was measured in its set-up; a
    // closed loop gets a short day shaped like its own offered load.
    spans.begin("driver.workload");
    ntier::workload::ArrivalTrace shaped;
    double gen_ns = 0;
    if (day != nullptr) {
      gen_ns = gen_s * 1e9 / static_cast<double>(day->size());
    } else {
      ntier::workload::TraceGenSpec s;
      s.seed = spec.seed;
      s.duration_s = 10;
      s.base_rps = cfg.offered_rps();
      s.think_mean_s = cfg.think_mean.to_seconds();
      ntier::workload::WorkloadParams params = cfg.workload;
      params.key_space = key_space;
      const auto t0 = Clock::now();
      shaped = ntier::workload::TraceGenerator(s).generate(
          ntier::workload::RubbosWorkload(params));
      gen_ns = seconds_since(t0) * 1e9 / static_cast<double>(shaped.size());
      day = &shaped;
    }
    out.put("workload.gen_s", gen_s);
    out.put("workload.gen_ns_per_arrival", gen_ns);
    out.put("workload.parse_ns_per_row", drivers::parse_ns_per_row(*day));
    spans.end();
  }
  return prof;
}

/// Body of a rep's child process; throws on failure.
void run_child(const RepSpec& spec, ChildOut& out) {
  Spans spans;
  spans.begin("rep");
  const ExperimentConfig base =
      make_config(spec.workload, spec.seed, spec.scale);
  const auto day_spec = trace_spec(spec.workload, spec.seed, spec.scale);

  // Set-up: config -> constructed Experiment, trace generation included.
  // Short set-ups repeat, keeping only the last Experiment, until
  // kSetupBudgetS is spent; their median resolves sub-millisecond set-ups
  // above timer and page-fault noise.
  ExperimentConfig cfg;
  std::unique_ptr<Experiment> e;
  std::shared_ptr<const ntier::workload::ArrivalTrace> day;
  std::vector<double> setups, gens, builds;
  double spent = 0;
  do {
    e.reset();
    day.reset();
    cfg = base;
    spans.begin("setup");
    if (day_spec) {
      spans.begin("workload.generate");
      day = std::make_shared<const ntier::workload::ArrivalTrace>(
          ntier::workload::TraceGenerator(*day_spec)
              .generate(ntier::workload::RubbosWorkload(cfg.workload)));
      gens.push_back(spans.end());
      cfg.replay_trace = day;
    }
    spans.begin("experiment.build");
    e = std::make_unique<Experiment>(cfg);
    builds.push_back(spans.end());
    setups.push_back(spans.end());
    spent += setups.back();
  } while (spent < kSetupBudgetS && setups.size() < kMaxSetups);
  const double setup_s = median(setups);
  const double gen_s = median(gens);
  const double build_s = median(builds);

  // Host clock at every simulated second: reps of one seed do identical
  // work, so the parent can keep each slice's fastest rep (see
  // WorkloadRun::end_to_end).
  std::vector<double> marks;
  Clock::time_point run_start;
  Ticker slice_clock(*e, SimTime::seconds(1),
                     [&] { marks.push_back(seconds_since(run_start)); });
  slice_clock.arm();
  ProbeStats probe;
  Ticker probe_ticker(*e, SimTime::millis(10), [&] {
    for (int i = 0; i < e->num_tomcats(); ++i) {
      probe.jobs_sum +=
          static_cast<double>(e->tomcat_node(i).cpu().jobs_running());
      ++probe.jobs_samples;
    }
    if (const auto* r = e->replayer())
      probe.inflight_peak = std::max(probe.inflight_peak, r->in_flight());
  });
  if (spec.traced) {
    probe_ticker.arm();
    profiler::start();
  }
  std::uint64_t allocs = 0;
  spans.begin("experiment.run");
  run_start = Clock::now();
  {
    alloc::Counted count(allocs);
    e->run();
  }
  const double run_s = spans.end();
  marks.push_back(seconds_since(run_start));
  if (spec.traced) profiler::stop();
  probe.events = slice_clock.scheduled + probe_ticker.scheduled;
  probe.events_fired = slice_clock.fired + probe_ticker.fired;
  std::string slices;
  for (std::size_t k = 0; k < marks.size(); ++k)
    slices += (k ? "," : "") + json_num(marks[k] - (k ? marks[k - 1] : 0.0));

  const std::uint64_t requests = requests_issued(*e);
  const double sim_s = e->config().duration.to_seconds();
  out.text("digest", to_hex(outcome_digest(*e)));
  const std::string bad = check_outcome(*e, day ? day->size() : 0);
  if (!bad.empty()) out.text("invalid", bad);
  out.put("setup_s", setup_s);
  out.put("experiment.build_s", build_s);
  out.put("run_s", run_s);
  out.text("slices", slices);
  out.put("requests", static_cast<double>(requests));
  out.put("sim_s", sim_s);
  out.put("host_ms_per_sim_s", run_s * 1e3 / sim_s);
  out.put("host_ns_per_request", run_s * 1e9 / static_cast<double>(requests));
  out.put("allocs_per_request",
          static_cast<double>(allocs) / static_cast<double>(requests));
  if (spec.traced) {
    const auto prof = per_layer(spec, cfg, *e, probe, run_s, requests,
                                day.get(), gen_s, spans, out);
    spans.end();  // rep
    write_trace_file(spec, spans, prof);
  }
}

// -- one rep (parent side) --------------------------------------------------

struct RepResult {
  bool ok = false;  // exited cleanly with a digest and a sane outcome
  std::string error;
  std::string digest;
  std::map<std::string, double> m;
  std::vector<double> slices;  // host seconds per simulated second
};

void write_all(int fd, const std::string& s) {
  std::size_t off = 0;
  while (off < s.size()) {
    const ssize_t n = write(fd, s.data() + off, s.size() - off);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) return;
    off += static_cast<std::size_t>(n);
  }
}

/// Fork a single-threaded child for one rep and collect its result, its
/// peak RSS (ru_maxrss from wait4) and its exit status. The child is
/// killed if it outlives `timeout_s`.
RepResult run_rep(const RepSpec& spec, double timeout_s) {
  RepResult r;
  int fds[2];
  if (pipe(fds) != 0) {
    r.error = "pipe failed";
    return r;
  }
  std::cout.flush();
  std::cerr.flush();
  const pid_t pid = fork();
  if (pid < 0) {
    close(fds[0]);
    close(fds[1]);
    r.error = "fork failed";
    return r;
  }
  if (pid == 0) {
    close(fds[0]);
    int code = 1;
    ChildOut out;
    try {
      run_child(spec, out);
      code = 0;
    } catch (const std::exception& ex) {
      out.text("error", ex.what());
    }
    write_all(fds[1], out.str());
    close(fds[1]);
    _exit(code);
  }
  close(fds[1]);
  std::string text;
  const auto deadline =
      Clock::now() + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(timeout_s));
  bool timed_out = false;
  char buf[4096];
  for (;;) {
    const auto left = std::chrono::duration_cast<std::chrono::milliseconds>(
                          deadline - Clock::now())
                          .count();
    if (left <= 0) {
      timed_out = true;
      break;
    }
    pollfd p{fds[0], POLLIN, 0};
    const int rc =
        poll(&p, 1, static_cast<int>(std::min<long long>(left, 1000)));
    if (rc < 0 && errno == EINTR) continue;
    if (rc <= 0) continue;
    const ssize_t n = read(fds[0], buf, sizeof buf);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) break;
    text.append(buf, static_cast<std::size_t>(n));
  }
  close(fds[0]);
  if (timed_out) kill(pid, SIGKILL);
  int status = 0;
  rusage ru{};
  while (wait4(pid, &status, 0, &ru) < 0 && errno == EINTR) {
  }

  std::istringstream in(text);
  std::string line;
  while (std::getline(in, line)) {
    const auto sp = line.find(' ');
    if (sp == std::string::npos) continue;
    const std::string key = line.substr(0, sp), val = line.substr(sp + 1);
    if (key == "digest") {
      r.digest = val;
    } else if (key == "slices") {
      std::istringstream vs(val);
      std::string x;
      while (std::getline(vs, x, ','))
        r.slices.push_back(std::strtod(x.c_str(), nullptr));
    } else if (key == "error" || key == "invalid") {
      r.error = key + ": " + val;
    } else {
      r.m[key] = std::strtod(val.c_str(), nullptr);
    }
  }
  r.m["peak_rss_mb"] = static_cast<double>(ru.ru_maxrss) / 1024.0;
  if (timed_out) r.error = "timed out after " + json_num(timeout_s) + " s";
  else if (WIFSIGNALED(status))
    r.error = std::string("killed by signal ") + strsignal(WTERMSIG(status));
  else if (!WIFEXITED(status) || WEXITSTATUS(status) != 0) {
    if (r.error.empty())
      r.error = "exit status " + std::to_string(WEXITSTATUS(status));
  }
  r.ok = r.error.empty() && !r.digest.empty();
  if (!r.ok && r.error.empty()) r.error = "no digest reported";
  return r;
}

// -- expected digests -------------------------------------------------------

constexpr const char* kExpectedPath =
    NTIER_PERF_SOURCE_DIR "/expected_outcomes.txt";

std::string scale_tag(double scale) { return scale == 1.0 ? "full" : "check"; }

/// expected_outcomes.txt: "<workload> <full|check> <seed> <digest>" lines.
std::map<std::string, std::string> load_expected(const std::string& path) {
  std::map<std::string, std::string> out;
  std::ifstream f(path);
  std::string line;
  while (std::getline(f, line)) {
    if (line.empty() || line[0] == '#') continue;
    std::istringstream in(line);
    std::string w, tag, seed, digest;
    if (in >> w >> tag >> seed >> digest)
      out[w + " " + tag + " " + seed] = digest;
  }
  return out;
}

// -- aggregation ------------------------------------------------------------

struct Value {
  MetricDef def;
  double value;
};

struct WorkloadRun {
  std::string name;
  std::string expected;  // committed digest for this seed and scale, if any
  std::vector<RepResult> reps;
  std::optional<RepResult> traced;
  std::vector<std::string> problems;

  /// Untraced reps that crashed, timed out or disagreed on the digest.
  std::size_t failed() const {
    std::size_t n = 0;
    for (const auto& r : reps) n += !r.ok;
    return n;
  }
  std::vector<double> samples(const std::string& metric) const {
    std::vector<double> v;
    for (const auto& r : reps)
      if (r.ok) v.push_back(r.m.at(metric));
    return v;
  }
  std::string digest() const {
    for (const auto& r : reps)
      if (r.ok) return r.digest;
    return traced && traced->ok ? traced->digest : "";
  }

  /// Digests must agree across reps, with the committed digest and with the
  /// traced rep (mismatching reps count as failed), and the traced rep must
  /// report every per-layer metric.
  void judge() {
    std::string ref = expected;
    for (auto& r : reps) {
      if (!r.ok) {
        problems.push_back("rep failed: " + r.error);
        continue;
      }
      if (ref.empty()) ref = r.digest;
      if (r.digest != ref) {
        r.ok = false;
        problems.push_back("digest " + r.digest + " != " + ref);
      }
    }
    if (!traced) return;
    if (!traced->ok) {
      problems.push_back("traced rep failed: " + traced->error);
      return;
    }
    if (!ref.empty() && traced->digest != ref)
      problems.push_back("traced digest " + traced->digest + " != " + ref);
    for (const auto& d : per_layer_metrics()) {
      const bool absent_by_design =
          is_self_time(d.name) && !profiler::supported();
      if (!traced->m.count(d.name) && !absent_by_design &&
          std::string(d.name) != "trace.overhead_share")
        problems.push_back(std::string("traced rep did not report ") + d.name);
    }
  }

  /// End-to-end values over the untraced reps that passed. Reps of one
  /// seed do identical simulated work and a busy neighbour on a shared host
  /// can only add wall time, so each simulated second keeps its fastest
  /// rep and the run time is the sum of those minima; set-up likewise keeps
  /// its fastest rep. Memory and allocations are medians.
  std::vector<Value> end_to_end() const {
    std::vector<const RepResult*> ok;
    for (const auto& r : reps)
      if (r.ok) ok.push_back(&r);
    if (ok.empty()) return {};
    std::vector<double> best = ok.front()->slices;
    for (const auto* r : ok)
      for (std::size_t k = 0; k < best.size() && k < r->slices.size(); ++k)
        best[k] = std::min(best[k], r->slices[k]);
    double run_s = 0;
    for (const double b : best) run_s += b;
    const auto& m = ok.front()->m;
    const auto setups = samples("setup_s");
    const std::map<std::string, double> value = {
        {"setup_s", *std::min_element(setups.begin(), setups.end())},
        {"host_ms_per_sim_s", run_s * 1e3 / m.at("sim_s")},
        {"host_ns_per_request", run_s * 1e9 / m.at("requests")},
        {"peak_rss_mb", median(samples("peak_rss_mb"))},
        {"allocs_per_request", median(samples("allocs_per_request"))},
    };
    std::vector<Value> out;
    for (const auto& d : end_to_end_metrics())
      out.push_back({d, value.at(d.name)});
    return out;
  }

  /// Values the traced rep reported, plus its run-time overhead against the
  /// untraced median.
  std::vector<Value> per_layer() const {
    std::vector<Value> out;
    if (!traced || !traced->ok) return out;
    const auto& m = traced->m;
    std::vector<MetricDef> defs = per_layer_metrics();
    if (m.count("metrics.paper_vlrt_error_pp"))
      defs.push_back({"metrics.paper_vlrt_error_pp", "pp"});
    const double base = median(samples("run_s"));
    for (const auto& d : defs) {
      if (std::string(d.name) == "trace.overhead_share") {
        if (base > 0) out.push_back({d, m.at("run_s") / base - 1.0});
      } else if (m.count(d.name)) {
        out.push_back({d, m.at(d.name)});
      }
    }
    return out;
  }
};

WorkloadRun make_run(const std::string& name, double scale, std::uint64_t seed,
                     const std::map<std::string, std::string>& expected) {
  WorkloadRun r;
  r.name = name;
  const auto it = expected.find(name + " " + scale_tag(scale) + " " +
                                std::to_string(seed));
  if (it != expected.end()) r.expected = it->second;
  return r;
}

void add_rep(WorkloadRun& run, const RepSpec& spec, double timeout_s) {
  run.reps.push_back(run_rep(spec, timeout_s));
  const auto& x = run.reps.back();
  std::cerr << "  " << std::left << std::setw(15) << run.name << std::right
            << " rep " << run.reps.size() << ": "
            << (x.ok ? json_num(x.m.at("run_s")) + " s  " + x.digest
                     : "FAILED: " + x.error)
            << "\n";
}

void print_value(const Value& v) {
  std::cout << "  " << std::left << std::setw(30) << v.def.name << std::right
            << std::setw(16) << std::setprecision(6) << v.value << " "
            << v.def.unit << "\n";
}

std::string json_values(const std::vector<Value>& values) {
  std::string out;
  for (const auto& v : values)
    out += (out.empty() ? "" : ", ") + json_str(v.def.name) +
           ": {\"value\": " + json_num(v.value) +
           ", \"unit\": " + json_str(v.def.unit) + "}";
  return out;
}

// -- options ----------------------------------------------------------------

struct Options {
  std::string workload;  // empty: the full set
  std::uint64_t seed = 42;
  int reps = 5;
  bool reps_set = false;
  bool check = false;
  double seconds = 0;
  int trace = 0;
  std::string out_dir = "build-perf";
  std::string git_sha = "unknown";
  std::string git_dirty = "unknown";
};

[[noreturn]] void usage(const std::string& why) {
  std::cerr << "bench_perf: " << why << "\n"
            << "usage: bench_perf [--seed N] [--reps R] [--check] "
               "[--out-dir D]\n"
            << "       bench_perf --workload W --seed N --seconds S "
               "--trace 0|1\n";
  std::exit(2);
}

Options parse(int argc, char** argv) {
  Options o;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    auto value = [&]() -> std::string {
      if (i + 1 >= argc) usage("missing value for " + a);
      return argv[++i];
    };
    auto number = [&](double lo, double hi) {
      const std::string v = value();
      char* end = nullptr;
      const double x = std::strtod(v.c_str(), &end);
      if (end == v.c_str() || *end != '\0' || !(x >= lo && x <= hi))
        usage("bad value for " + a + ": " + v);
      return x;
    };
    if (a == "--workload") o.workload = value();
    else if (a == "--seed")
      o.seed = static_cast<std::uint64_t>(number(0, 1e15));
    else if (a == "--reps") {
      o.reps = static_cast<int>(number(1, 100));
      o.reps_set = true;
    } else if (a == "--check") o.check = true;
    else if (a == "--seconds") o.seconds = number(1, 3600);
    else if (a == "--trace") o.trace = static_cast<int>(number(0, 1));
    else if (a == "--out-dir") o.out_dir = value();
    else if (a == "--git-sha") o.git_sha = value();
    else if (a == "--git-dirty") o.git_dirty = value();
    else usage("unknown argument " + a);
  }
  if (!o.workload.empty() && !known_workload(o.workload))
    usage("unknown workload " + o.workload);
  if (!o.workload.empty() && o.seconds <= 0)
    usage("--workload needs --seconds");
  if (o.check && !o.reps_set) o.reps = 2;
  return o;
}

// -- single-workload mode ---------------------------------------------------

/// A single-workload run takes at least this many untraced reps, so its
/// median rejects one outlier.
constexpr int kMinReps = 3;
/// Hard ceiling on one invocation, safely under the 180 s a run may take.
constexpr double kBudgetS = 170;

int single_workload(const Options& o) {
  const auto t0 = Clock::now();
  auto left = [&] { return kBudgetS - seconds_since(t0); };
  const double scale = 1.0;
  WorkloadRun run =
      make_run(o.workload, scale, o.seed, load_expected(kExpectedPath));
  const RepSpec spec{o.workload, o.seed, scale, false, ""};
  if (o.trace) {
    // One untraced rep gives the digest the traced one must match and the
    // base of trace.overhead_share.
    add_rep(run, spec, left());
    RepSpec traced = spec;
    traced.traced = true;
    traced.trace_path = o.out_dir + "/trace_" + o.workload + ".json";
    run.traced = run_rep(traced, left());
  } else {
    // Reps keep starting while one more, at the mean rep time so far, still
    // fits in --seconds (kMinReps at least, and never past kBudgetS).
    for (;;) {
      add_rep(run, spec, left());
      const double elapsed = seconds_since(t0);
      const double next =
          elapsed + elapsed / static_cast<double>(run.reps.size());
      const bool want = static_cast<int>(run.reps.size()) < kMinReps ||
                        next <= o.seconds;
      if (!want || next > kBudgetS) break;
    }
  }
  run.judge();
  for (const auto& p : run.problems) std::cerr << "  problem: " << p << "\n";

  const auto values = o.trace ? run.per_layer() : run.end_to_end();
  for (const auto& v : values) print_value(v);
  std::vector<Value> reported;
  for (const auto& v : values)
    if (std::string(v.def.name) != "metrics.paper_vlrt_error_pp")
      reported.push_back(v);
  const std::size_t attempted = run.reps.size() + (run.traced ? 1 : 0);
  const std::size_t failed =
      run.failed() + (run.traced && !run.traced->ok ? 1 : 0);
  std::cout << "{\"correct\": " << (run.problems.empty() ? "true" : "false")
            << ", \"attempted\": " << attempted << ", \"failed\": " << failed
            << ", \"metrics\": {" << json_values(reported) << "}}" << std::endl;
  return 0;
}

// -- full set ---------------------------------------------------------------

#if defined(__clang__)
constexpr const char* kCompiler = "clang " __clang_version__;
#elif defined(__GNUC__)
constexpr const char* kCompiler = "gcc " __VERSION__;
#else
constexpr const char* kCompiler = "unknown";
#endif

std::string manifest_json(const Options& o, double scale) {
  std::ostringstream m;
#ifdef NTIER_OBS_DISABLED
  const int obs_disabled = 1;
#else
  const int obs_disabled = 0;
#endif
  m << "{\"git_sha\": " << json_str(o.git_sha) << ", \"git_dirty\": "
    << json_str(o.git_dirty) << ", \"build_type\": "
    << json_str(NTIER_PERF_BUILD_TYPE) << ", \"compiler\": "
    << json_str(kCompiler)
    << ", \"flags\": {\"NTIER_OBS_DISABLED\": " << obs_disabled
    << "}, \"nproc\": " << sysconf(_SC_NPROCESSORS_ONLN)
    << ", \"seed\": " << o.seed << ", \"reps\": " << o.reps
    << ", \"duration_scale\": " << json_num(scale) << "}";
  return m.str();
}

int full_set(const Options& o) {
  const auto t0 = Clock::now();
  const double scale = o.check ? 0.1 : 1.0;
  constexpr double kRepTimeoutS = 170;
  const auto expected = load_expected(kExpectedPath);
  std::vector<WorkloadRun> runs;
  for (const auto& w : workloads())
    runs.push_back(make_run(w.name, scale, o.seed, expected));
  // Round-robin: a noisy minute on a shared host lands on every workload.
  for (int rep = 0; rep < o.reps; ++rep)
    for (auto& r : runs)
      add_rep(r, RepSpec{r.name, o.seed, scale, false, ""}, kRepTimeoutS);
  for (auto& r : runs) {
    r.traced = run_rep(RepSpec{r.name, o.seed, scale, true,
                               o.out_dir + "/trace_" + r.name + ".json"},
                       kRepTimeoutS);
    r.judge();
  }

  bool ok = true;
  std::ostringstream js;
  js << "{\"manifest\": " << manifest_json(o, scale) << ", \"workloads\": [";
  for (std::size_t wi = 0; wi < runs.size(); ++wi) {
    const auto& r = runs[wi];
    const auto& why = workloads()[wi].why;
    auto e2e = r.end_to_end();
    e2e.push_back({{"failed_run_share", "ratio"},
                   static_cast<double>(r.failed()) /
                       static_cast<double>(r.reps.size())});
    const auto layer = r.per_layer();
    std::cout << "\n== " << r.name << "  (" << r.reps.size()
              << " reps + 1 traced, digest " << r.digest() << ")\n  " << why
              << "\n";
    for (const auto& v : e2e) print_value(v);
    std::cout << "  -- per layer (traced rep)\n";
    for (const auto& v : layer) print_value(v);
    for (const auto& p : r.problems) std::cout << "  PROBLEM " << p << "\n";
    ok = ok && r.problems.empty();

    js << (wi ? ", " : "") << "{\"name\": " << json_str(r.name)
       << ", \"why\": " << json_str(why) << ", \"digest\": "
       << json_str(r.digest()) << ", \"expected_digest\": "
       << json_str(r.expected) << ", \"problems\": [";
    for (std::size_t i = 0; i < r.problems.size(); ++i)
      js << (i ? ", " : "") << json_str(r.problems[i]);
    js << "], \"end_to_end\": {" << json_values(e2e) << "}, \"rep_values\": {";
    for (std::size_t i = 0; i < end_to_end_metrics().size(); ++i) {
      const char* name = end_to_end_metrics()[i].name;
      js << (i ? ", " : "") << json_str(name) << ": [";
      const auto v = r.samples(name);
      for (std::size_t k = 0; k < v.size(); ++k)
        js << (k ? ", " : "") << json_num(v[k]);
      js << "]";
    }
    js << "}, \"per_layer\": {" << json_values(layer) << "}}";
  }
  js << "], \"wall_s\": " << json_num(seconds_since(t0)) << "}\n";

  const std::string path = o.out_dir + "/bench_perf.json";
  std::ofstream f(path);
  f << js.str();
  if (!f) {
    std::cerr << "bench_perf: cannot write " << path << "\n";
    return 1;
  }
  std::cout << "\nwrote " << path << " (" << std::fixed << std::setprecision(1)
            << seconds_since(t0) << " s)\n"
            << (ok ? "ok" : "FAILED") << "\n";
  return ok ? 0 : 1;
}

}  // namespace
}  // namespace perf

int main(int argc, char** argv) {
  const perf::Options o = perf::parse(argc, argv);
  return o.workload.empty() ? perf::full_set(o) : perf::single_workload(o);
}
