#include "experiment/report.h"

#include <algorithm>
#include <cstdlib>
#include <fstream>
#include <iomanip>
#include <iostream>
#include <stdexcept>

#include "sim/fields.h"

namespace ntier::experiment {

void print_table1_header(std::ostream& os) {
  os << std::left << std::setw(44) << "Policy / mechanism" << std::right
     << std::setw(11) << "#Requests" << std::setw(13) << "Avg RT (ms)"
     << std::setw(12) << "%VLRT>1s" << std::setw(12) << "%<10ms" << "\n";
  os << std::string(92, '-') << "\n";
}

std::string sparkline(const std::vector<double>& values, std::size_t width) {
  static const char* kLevels[] = {" ", "▁", "▂", "▃",
                                  "▄", "▅", "▆", "▇",
                                  "█"};
  if (values.empty()) return "";
  // Downsample (max-preserving) to `width` cells.
  std::vector<double> cells(std::min(width, values.size()), 0.0);
  const double stride =
      static_cast<double>(values.size()) / static_cast<double>(cells.size());
  for (std::size_t i = 0; i < values.size(); ++i) {
    auto c = static_cast<std::size_t>(static_cast<double>(i) / stride);
    c = std::min(c, cells.size() - 1);
    cells[c] = std::max(cells[c], values[i]);
  }
  const double peak = *std::max_element(cells.begin(), cells.end());
  std::string out;
  for (double v : cells) {
    const int level =
        peak <= 0 ? 0
                  : static_cast<int>(std::min(8.0, std::ceil(v / peak * 8.0)));
    out += kLevels[level];
  }
  return out;
}

std::vector<double> series_avg(const metrics::TimeSeries& s, std::size_t windows) {
  std::vector<double> v(windows, 0.0);
  for (std::size_t i = 0; i < windows; ++i) v[i] = s.avg(i);
  return v;
}

std::vector<double> series_max(const metrics::TimeSeries& s, std::size_t windows) {
  std::vector<double> v(windows, 0.0);
  for (std::size_t i = 0; i < windows; ++i) v[i] = s.max(i);
  return v;
}

std::vector<double> series_count(const metrics::TimeSeries& s, std::size_t windows) {
  std::vector<double> v(windows, 0.0);
  for (std::size_t i = 0; i < windows; ++i)
    v[i] = static_cast<double>(s.count(i));
  return v;
}

std::vector<double> slice(const std::vector<double>& v, sim::SimTime window,
                          sim::SimTime t0, sim::SimTime t1) {
  const auto i0 = static_cast<std::size_t>(
      std::max<std::int64_t>(0, t0.ns() / window.ns()));
  const auto i1 = std::min<std::size_t>(
      v.size(), static_cast<std::size_t>(std::max<std::int64_t>(0, t1.ns() / window.ns())));
  if (i0 >= i1) return {};
  return {v.begin() + static_cast<std::ptrdiff_t>(i0),
          v.begin() + static_cast<std::ptrdiff_t>(i1)};
}

double max_of(const std::vector<double>& v) {
  double m = 0;
  for (double x : v) m = std::max(m, x);
  return m;
}

double sum_of(const std::vector<double>& v) {
  double s = 0;
  for (double x : v) s += x;
  return s;
}

void print_panel(std::ostream& os, const std::string& name,
                 const std::vector<double>& v) {
  os << "  " << std::left << std::setw(30) << name << " |" << sparkline(v)
     << "|  peak=" << std::fixed << std::setprecision(1) << max_of(v) << "\n";
}

void write_series_csv(const std::string& path, sim::SimTime window,
                      const std::vector<std::string>& names,
                      const std::vector<std::vector<double>>& columns) {
  std::ofstream f(path);
  if (!f) throw std::runtime_error("cannot open " + path);
  f << "time_s";
  for (const auto& n : names) f << ',' << n;
  f << '\n';
  std::size_t rows = 0;
  for (const auto& c : columns) rows = std::max(rows, c.size());
  for (std::size_t r = 0; r < rows; ++r) {
    f << (window * static_cast<std::int64_t>(r)).to_seconds();
    for (const auto& c : columns) f << ',' << (r < c.size() ? c[r] : 0.0);
    f << '\n';
  }
}

namespace {

/// Like ntier_run: a bad command line names the problem and exits 2, never
/// running with a value the user did not ask for.
[[noreturn]] void reject_bench_args(const std::string& program,
                                    const std::string& why) {
  std::cerr << "error: " << why << "\n\nusage: " << program
            << " [--full] [--quick] [--seed N] [--csv DIR] [--trace FILE]"
               " [--trace-format jsonl|chrome] [--json FILE]"
               " [--sweep-seeds N] [--jobs J]\n";
  std::exit(2);
}

}  // namespace

BenchOptions BenchOptions::parse(int argc, char** argv) {
  BenchOptions o;
  if (argc > 0 && argv[0] != nullptr) {
    const std::string prog = argv[0];
    const auto slash = prog.find_last_of('/');
    o.program = slash == std::string::npos ? prog : prog.substr(slash + 1);
  }
  std::string format;  // --trace-format's word
  const auto flags = [&](auto&& row) {
    row("--full", o.full, sim::Switch{});
    row("--quick", o.quick, sim::Switch{});
    row("--csv", o.csv_dir, sim::Text{});
    row("--seed", o.seed, sim::Int{});
    row("--trace", o.trace_path, sim::Text{});
    row("--trace-format", format, sim::Text{});
    row("--json", o.json_path, sim::Text{});
    row("--sweep-seeds", o.sweep_seeds, sim::Int{.lo = 1});
    row("--jobs", o.jobs, sim::Int{.lo = 1});
  };
  const std::vector<std::string> args(argv + std::min(argc, 1), argv + argc);
  for (std::size_t i = 0; i < args.size(); ++i) {
    const std::string flag = args[i];
    const sim::FlagResult r = sim::apply_flag(flags, args, i);
    if (r.status == sim::FlagResult::kNotInTable)
      reject_bench_args(o.program, "unknown flag " + flag);
    if (r.status == sim::FlagResult::kMissingValue)
      reject_bench_args(o.program, "missing value for " + flag);
    if (r.status == sim::FlagResult::kBadValue)
      reject_bench_args(o.program, r.error);
    if (flag == "--trace-format") {
      const auto f = obs::parse_trace_format(format);
      if (!f) reject_bench_args(o.program, "bad --trace-format");
      o.trace_format = *f;
    }
  }
  return o;
}

ExperimentConfig BenchOptions::apply(ExperimentConfig base) const {
  if (full) {
    const ExperimentConfig paper = ExperimentConfig::paper_scale();
    base.num_clients = paper.num_clients;
    if (base.label == "single_node") base.num_clients /= 4;
    base.think_mean = paper.think_mean;
    base.duration = paper.duration;
    base.warmup = paper.warmup;
  }
  base.seed = seed;
  return base;
}

}  // namespace ntier::experiment
