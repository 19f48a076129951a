#include "experiment/sweep.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <iomanip>
#include <sstream>
#include <stdexcept>
#include <thread>

#include "experiment/chaos.h"
#include "experiment/experiment.h"
#include "metrics/request_log.h"
#include "sim/rng.h"

namespace ntier::experiment {

namespace {

/// Two-sided 95% Student-t quantiles, t_{0.975, df}; df > 30 ≈ normal.
double t_975(int df) {
  static constexpr double kTable[] = {
      12.706, 4.303, 3.182, 2.776, 2.571, 2.447, 2.365, 2.306, 2.262, 2.228,
      2.201,  2.179, 2.160, 2.145, 2.131, 2.120, 2.110, 2.101, 2.093, 2.086,
      2.080,  2.074, 2.069, 2.064, 2.060, 2.056, 2.052, 2.048, 2.045, 2.042};
  if (df < 1) return 0.0;
  if (df <= 30) return kTable[df - 1];
  return 1.960;
}

}  // namespace

MetricStats MetricStats::from(const std::vector<double>& samples) {
  MetricStats s;
  s.n = static_cast<int>(samples.size());
  if (s.n == 0) return s;
  s.min = s.max = samples[0];
  double sum = 0;
  for (double x : samples) {
    sum += x;
    s.min = std::min(s.min, x);
    s.max = std::max(s.max, x);
  }
  s.mean = sum / s.n;
  if (s.n < 2) return s;
  double sq = 0;
  for (double x : samples) sq += (x - s.mean) * (x - s.mean);
  s.stddev = std::sqrt(sq / (s.n - 1));
  s.ci95_half = t_975(s.n - 1) * s.stddev / std::sqrt(static_cast<double>(s.n));
  return s;
}

double AggregateSummary::pooled_vlrt_fraction() const {
  return pooled.fraction_above(metrics::RequestLog::kVlrtThresholdMs);
}

void AggregateSummary::finalize() {
  std::vector<double> v(per_run.size());
  for (const RunMetric& m : kRunMetrics) {
    for (std::size_t i = 0; i < per_run.size(); ++i) v[i] = m.get(per_run[i]);
    this->*m.stats = MetricStats::from(v);
  }
}

AggregateSummary AggregateSummary::merge(AggregateSummary a,
                                         const AggregateSummary& b) {
  a.per_run.insert(a.per_run.end(), b.per_run.begin(), b.per_run.end());
  a.run_seeds.insert(a.run_seeds.end(), b.run_seeds.begin(), b.run_seeds.end());
  a.pooled.merge(b.pooled);
  a.finalize();
  return a;
}

namespace {

void json_stats(std::ostream& os, const char* name, const MetricStats& s,
                bool comma = true) {
  os << "    \"" << name << "\": {\"n\": " << s.n << ", \"mean\": " << s.mean
     << ", \"stddev\": " << s.stddev << ", \"ci95_half\": " << s.ci95_half
     << ", \"min\": " << s.min << ", \"max\": " << s.max << '}';
  if (comma) os << ',';
  os << '\n';
}

}  // namespace

void AggregateSummary::to_json(std::ostream& os) const {
  os << std::setprecision(10);
  os << "{\n";
  os << "  \"label\": \"" << label << "\",\n";
  os << "  \"policy\": \"" << policy << "\",\n";
  os << "  \"mechanism\": \"" << mechanism << "\",\n";
  os << "  \"base_seed\": " << base_seed << ",\n";
  os << "  \"runs\": " << runs() << ",\n";
  os << "  \"run_seeds\": [";
  for (std::size_t i = 0; i < run_seeds.size(); ++i) {
    if (i) os << ", ";
    os << run_seeds[i];
  }
  os << "],\n";
  os << "  \"metrics\": {\n";
  for (std::size_t i = 0; i < kNumRunMetrics; ++i)
    json_stats(os, kRunMetrics[i].name, this->*kRunMetrics[i].stats,
               /*comma=*/i + 1 < kNumRunMetrics);
  os << "  },\n";
  os << "  \"pooled\": {\"completed\": " << pooled.count()
     << ", \"mean_ms\": " << pooled_mean_ms()
     << ", \"p50_ms\": " << pooled_p50_ms()
     << ", \"p99_ms\": " << pooled_p99_ms()
     << ", \"p999_ms\": " << pooled_p999_ms()
     << ", \"vlrt_fraction\": " << pooled_vlrt_fraction() << "},\n";
  os << "  \"per_run\": [\n";
  for (std::size_t i = 0; i < per_run.size(); ++i) {
    std::istringstream one(per_run[i].to_json_string());
    std::string line;
    std::vector<std::string> lines;
    while (std::getline(one, line))
      if (!line.empty()) lines.push_back(line);
    for (std::size_t j = 0; j < lines.size(); ++j) {
      os << "    " << lines[j];
      if (j + 1 == lines.size() && i + 1 < per_run.size()) os << ',';
      os << '\n';
    }
  }
  os << "  ]\n";
  os << "}\n";
}

std::string AggregateSummary::to_json_string() const {
  std::ostringstream os;
  to_json(os);
  return os.str();
}

void AggregateSummary::to_csv(std::ostream& os) const {
  os << std::setprecision(10);
  os << "metric,n,mean,stddev,ci95_half,min,max\n";
  for (const RunMetric& m : kRunMetrics) {
    const MetricStats& s = this->*m.stats;
    os << m.name << ',' << s.n << ',' << s.mean << ',' << s.stddev << ','
       << s.ci95_half << ',' << s.min << ',' << s.max << '\n';
  }
}

void AggregateSummary::per_run_csv(std::ostream& os) const {
  os << std::setprecision(10);
  os << "run,seed";
  for (const RunMetric& m : kRunMetrics) os << ',' << m.name;
  os << '\n';
  for (std::size_t i = 0; i < per_run.size(); ++i) {
    os << i << ',' << (i < run_seeds.size() ? run_seeds[i] : 0);
    for (const RunMetric& m : kRunMetrics) os << ',' << m.get(per_run[i]);
    os << '\n';
  }
}

void AggregateSummary::print_table(std::ostream& os) const {
  os << "sweep '" << label << "' (" << policy << " + " << mechanism << "), "
     << runs() << " runs, base seed " << base_seed << ":\n";
  for (const RunMetric& m : kRunMetrics) {
    const MetricStats& s = this->*m.stats;
    if (s.min == 0 && s.max == 0) continue;
    os << "  " << std::left << std::setw(28) << m.name << std::right
       << std::fixed << std::setprecision(3) << std::setw(12) << s.mean
       << " ± " << std::setw(9) << s.ci95_half << ' ' << std::left
       << std::setw(5) << m.unit << "  (stddev " << s.stddev << ", range "
       << s.min << " .. " << s.max << ")\n";
  }
  os << "  pooled over " << pooled.count() << " samples: mean " << std::fixed
     << std::setprecision(3) << pooled_mean_ms() << " ms, p99 "
     << pooled_p99_ms() << " ms, p99.9 " << pooled_p999_ms()
     << " ms, VLRT fraction " << std::setprecision(5) << pooled_vlrt_fraction()
     << "\n";
}

// ---------------------------------------------------------------------------

std::uint64_t SweepRunner::replica_seed(std::uint64_t base_seed, int index) {
  return sim::Rng::derive_seed(base_seed, static_cast<std::uint64_t>(index));
}

SweepRunner::SweepRunner(SweepConfig config) : config_(std::move(config)) {
  if (!config_.grid.empty()) {
    configs_ = config_.grid;
  } else {
    if (config_.num_runs < 1)
      throw std::invalid_argument("SweepConfig: num_runs must be >= 1");
    configs_.reserve(static_cast<std::size_t>(config_.num_runs));
    for (int i = 0; i < config_.num_runs; ++i) {
      ExperimentConfig c = config_.base;
      c.seed = replica_seed(config_.base.seed, i);
      c.label = config_.base.label + "#" + std::to_string(i);
      configs_.push_back(std::move(c));
    }
  }
  if (config_.jobs < 1)
    throw std::invalid_argument("SweepConfig: jobs must be >= 1");
}

AggregateSummary SweepRunner::run() {
  struct Slot {
    RunSummary summary;
    metrics::LatencyHistogram hist;
    std::exception_ptr error;
  };
  std::vector<Slot> slots(configs_.size());
  std::atomic<std::size_t> next{0};

  auto worker = [&] {
    for (;;) {
      const std::size_t i = next.fetch_add(1, std::memory_order_relaxed);
      if (i >= configs_.size()) return;
      try {
        Experiment e(configs_[i]);
        e.run();
        slots[i].summary = summarize(e);
        slots[i].hist = e.log().histogram();
      } catch (...) {
        slots[i].error = std::current_exception();
      }
    }
  };

  const std::size_t threads = std::min<std::size_t>(
      static_cast<std::size_t>(config_.jobs), configs_.size());
  if (threads <= 1) {
    worker();
  } else {
    std::vector<std::thread> pool;
    pool.reserve(threads);
    for (std::size_t t = 0; t < threads; ++t) pool.emplace_back(worker);
    for (auto& t : pool) t.join();
  }
  for (const Slot& s : slots)
    if (s.error) std::rethrow_exception(s.error);

  AggregateSummary agg;
  agg.label = config_.grid.empty() ? config_.base.label : configs_.front().label;
  agg.policy = slots.empty() ? "" : slots.front().summary.policy;
  agg.mechanism = slots.empty() ? "" : slots.front().summary.mechanism;
  agg.base_seed = config_.base.seed;
  for (std::size_t i = 0; i < slots.size(); ++i) {
    agg.per_run.push_back(std::move(slots[i].summary));
    agg.run_seeds.push_back(configs_[i].seed);
    agg.pooled.merge(slots[i].hist);
  }
  agg.finalize();
  return agg;
}

}  // namespace ntier::experiment
