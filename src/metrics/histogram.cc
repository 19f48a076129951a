#include "metrics/histogram.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace ntier::metrics {

LatencyHistogram::LatencyHistogram(double min_value_ms, double max_value_ms,
                                   int buckets_per_decade)
    : min_value_(min_value_ms),
      log_min_(std::log10(min_value_ms)),
      inv_log_step_(buckets_per_decade) {
  if (min_value_ms <= 0 || max_value_ms <= min_value_ms || buckets_per_decade <= 0)
    throw std::invalid_argument("LatencyHistogram: bad bucketisation");
  const double decades = std::log10(max_value_ms) - log_min_;
  counts_.assign(static_cast<std::size_t>(std::ceil(decades * buckets_per_decade)) + 1, 0);
}

std::size_t LatencyHistogram::bucket_index(double v) const {
  if (v <= min_value_) return 0;
  const double idx = (std::log10(v) - log_min_) * inv_log_step_;
  const auto i = static_cast<std::size_t>(idx);
  return std::min(i, counts_.size() - 1);
}

double LatencyHistogram::bucket_lower(std::size_t i) const {
  return std::pow(10.0, log_min_ + static_cast<double>(i) / inv_log_step_);
}

void LatencyHistogram::record(double value_ms) {
  if (count_ == 0) {
    min_rec_ = max_rec_ = value_ms;
  } else {
    min_rec_ = std::min(min_rec_, value_ms);
    max_rec_ = std::max(max_rec_, value_ms);
  }
  ++count_;
  sum_ += value_ms;
  ++counts_[bucket_index(value_ms)];
}

double LatencyHistogram::percentile(double p) const {
  if (count_ == 0) return 0.0;
  if (p < 0 || p > 100) throw std::invalid_argument("percentile: p out of range");
  // p=0 means "the smallest recorded value", i.e. the first non-empty bucket.
  const double target =
      std::max(1.0, p / 100.0 * static_cast<double>(count_));
  std::int64_t cum = 0;
  for (std::size_t i = 0; i < counts_.size(); ++i) {
    cum += counts_[i];
    if (static_cast<double>(cum) >= target) return bucket_upper(i);
  }
  return bucket_upper(counts_.size() - 1);
}

std::int64_t LatencyHistogram::count_above(double threshold_ms) const {
  // Snap the threshold to its containing bucket: the whole straddling bucket
  // counts as "above", so above/below partition the samples exactly. (The
  // old formulation skipped the bucket with lower < threshold < upper from
  // BOTH sides, silently undercounting VLRT fractions at any threshold that
  // is not a bucket boundary.)
  std::int64_t n = 0;
  for (std::size_t i = bucket_index(threshold_ms); i < counts_.size(); ++i)
    n += counts_[i];
  return n;
}

double LatencyHistogram::fraction_above(double threshold_ms) const {
  return count_ ? static_cast<double>(count_above(threshold_ms)) /
                      static_cast<double>(count_)
                : 0.0;
}

double LatencyHistogram::fraction_below(double threshold_ms) const {
  if (count_ == 0) return 0.0;
  // Exact complement of count_above: every sample lands on exactly one side.
  return static_cast<double>(count_ - count_above(threshold_ms)) /
         static_cast<double>(count_);
}

void LatencyHistogram::merge(const LatencyHistogram& other) {
  if (other.counts_.size() != counts_.size() || other.min_value_ != min_value_ ||
      other.inv_log_step_ != inv_log_step_)
    throw std::invalid_argument("LatencyHistogram::merge: incompatible buckets");
  for (std::size_t i = 0; i < counts_.size(); ++i) counts_[i] += other.counts_[i];
  if (other.count_) {
    if (count_ == 0) {
      min_rec_ = other.min_rec_;
      max_rec_ = other.max_rec_;
    } else {
      min_rec_ = std::min(min_rec_, other.min_rec_);
      max_rec_ = std::max(max_rec_, other.max_rec_);
    }
  }
  count_ += other.count_;
  sum_ += other.sum_;
}

}  // namespace ntier::metrics
