#pragma once

#include <cstdint>
#include <vector>

namespace ntier::metrics {

/// Log-bucketed latency histogram. Buckets are geometric with a configurable
/// number of sub-buckets per decade, spanning [min_value, max_value]; values
/// outside are clamped into the first/last bucket. This is how Fig. 4
/// (frequency of requests by response time) is rendered, and where the
/// percentile / VLRT-fraction numbers of Table I come from.
class LatencyHistogram {
 public:
  /// Defaults: 0.1 ms .. 100 s, 20 buckets per decade (≈12 % resolution).
  explicit LatencyHistogram(double min_value_ms = 0.1,
                            double max_value_ms = 100'000.0,
                            int buckets_per_decade = 20);

  void record(double value_ms);

  std::int64_t count() const { return count_; }
  double sum() const { return sum_; }
  double mean() const { return count_ ? sum_ / static_cast<double>(count_) : 0.0; }
  double min_recorded() const { return min_rec_; }
  double max_recorded() const { return max_rec_; }

  /// p in [0, 100]. Returns the upper bound of the bucket containing the
  /// p-th percentile (0 when empty).
  double percentile(double p) const;

  /// Number / fraction of samples with value > threshold (e.g. VLRT > 1000).
  /// The threshold is snapped to its containing bucket (the straddling
  /// bucket counts as "above"), so count_above + the "below" complement is
  /// a partition: every recorded sample is counted on exactly one side.
  std::int64_t count_above(double threshold_ms) const;
  double fraction_above(double threshold_ms) const;
  /// Fraction with value < threshold (e.g. "normal" < 10 ms). Exact
  /// complement of fraction_above at the same threshold.
  double fraction_below(double threshold_ms) const;

  std::size_t num_buckets() const { return counts_.size(); }
  double bucket_lower(std::size_t i) const;
  double bucket_upper(std::size_t i) const { return bucket_lower(i + 1); }
  std::int64_t bucket_count(std::size_t i) const { return counts_[i]; }

  /// Merge another histogram with identical bucketisation.
  void merge(const LatencyHistogram& other);

 private:
  std::size_t bucket_index(double v) const;

  double min_value_;
  double log_min_;
  double inv_log_step_;  // buckets per log10 unit
  std::vector<std::int64_t> counts_;
  std::int64_t count_ = 0;
  double sum_ = 0;
  double min_rec_ = 0;
  double max_rec_ = 0;
};

}  // namespace ntier::metrics
