#include "lb/probe_policy.h"

#include <algorithm>
#include <cmath>
#include <vector>

namespace ntier::lb {

namespace {

/// Prequal's hot/cold rule: a result whose requests-in-flight exceeds this
/// quantile of the pooled RIFs is "hot" and excluded from the latency
/// ranking.
constexpr double kHotQuantile = 0.75;
/// Safety factor on the hot threshold: a worker only counts as hot when its
/// RIF exceeds max(quantile_value * kHotFactor, quantile_value + 1).
/// Ordinary Poisson spread around a balanced operating point stays under it;
/// a millibottleneck's queue spike (tens to hundreds of requests in one
/// stall) crosses it immediately. Keeps the hot/cold rule from firing on
/// noise in small clusters, where the raw quantile rule marks the momentary
/// maximum hot almost every decision.
constexpr double kHotFactor = 2.0;

/// Drift-corrected requests-in-flight: the probed global snapshot, with the
/// balancer's own (stale) contribution swapped for its exact live count.
/// Between probe replies the balancer knows precisely how its own in-flight
/// load on each worker moved; without the swap, every decision inside one
/// probe interval sees the same "coldest" worker and herds onto it — the
/// stale-JSQ failure mode. With it, a quiet interval degrades gracefully
/// toward current_load ranking plus a constant.
double corrected_rif(const probe::ProbeResult& r, const WorkerRecord& rec) {
  return r.rif - r.local_rif + static_cast<double>(rec.outstanding);
}

}  // namespace

int PowerOfDPolicy::pick(const std::vector<WorkerRecord>& records,
                         const EligibleSet& eligible, sim::Rng& rng) {
  if (eligible.empty()) return -1;
  if (pool_ != nullptr) {
    pool_->expire_now();
    // Sample min(d, n) distinct eligible workers (partial Fisher-Yates), then
    // JSQ over the probe-fresh members of the sample. Ties break toward the
    // lower worker index so the choice is independent of sample order.
    std::vector<int>& sample = sample_;
    sample.assign(eligible.begin(), eligible.end());
    const int n = static_cast<int>(sample.size());
    const int d = std::min(d_, n);
    int best = -1;
    int fresh_in_sample = 0;
    double best_rif = 0.0;
    double best_lb = 0.0;
    for (int i = 0; i < d; ++i) {
      const auto j = static_cast<std::size_t>(rng.uniform_int(i, n - 1));
      std::swap(sample[static_cast<std::size_t>(i)], sample[j]);
      const int w = sample[static_cast<std::size_t>(i)];
      const auto r = pool_->freshest(w);
      if (!r) continue;
      ++fresh_in_sample;
      const auto& rec = records[static_cast<std::size_t>(w)];
      const double rif = corrected_rif(*r, rec);
      // RIF values are integer-valued counts, so exact ties are the common
      // case; breaking them by worker index would starve the high indices
      // (and pile load on worker 0). Break by the balancer's own lb_value,
      // then index.
      if (best < 0 || rif < best_rif ||
          (rif == best_rif &&
           (rec.lb_value < best_lb ||
            (rec.lb_value == best_lb && w < best)))) {
        best = w;
        best_rif = rif;
        best_lb = rec.lb_value;
      }
    }
    // JSQ(d) needs a comparison to mean anything: with only one fresh
    // candidate in the sample it would win unconditionally — however loaded —
    // and expired entries would silently bias the choice. Fall back instead.
    if (fresh_in_sample >= 2) {
      pool_->note_use(best);
      ++probe_picks_;
      return best;
    }
  }
  return fallback(records, eligible, rng);
}

int PrequalPolicy::pick(const std::vector<WorkerRecord>& records,
                        const EligibleSet& eligible, sim::Rng& rng) {
  if (eligible.empty()) return -1;
  if (pool_ != nullptr) {
    pool_->expire_now();
    std::vector<probe::ProbeResult>& fresh = fresh_;
    fresh.clear();
    for (int idx : eligible)
      if (auto r = pool_->freshest(idx)) {
        // Rank on the drift-corrected estimate from here on.
        r->rif = corrected_rif(*r, records[static_cast<std::size_t>(idx)]);
        fresh.push_back(*r);
      }
    if (!fresh.empty()) {
      // Hot threshold: the kHotQuantile quantile of the fresh RIFs, widened
      // by the kHotFactor safety margin so ordinary spread around a balanced
      // point marks nobody hot while a millibottleneck's queue spike does.
      std::vector<double>& rifs = rifs_;
      rifs.clear();
      for (const auto& r : fresh) rifs.push_back(r.rif);
      std::sort(rifs.begin(), rifs.end());
      const auto pos = static_cast<std::size_t>(
          std::floor(kHotQuantile * static_cast<double>(rifs.size() - 1)));
      const double quantile = rifs[std::min(pos, rifs.size() - 1)];
      const double hot_threshold =
          std::max(quantile * kHotFactor, quantile + 1.0);

      // Anomaly regime — someone is hot: the lexicographic rule. Among cold
      // workers pick the lowest estimated latency; if everyone is hot, fall
      // to the lowest RIF. Ties break toward the lower worker index.
      int best_cold = -1;
      double best_lat = 0.0;
      int best_hot = -1;
      double best_hot_rif = 0.0;
      for (const auto& r : fresh) {
        if (r.rif <= hot_threshold) {
          if (best_cold < 0 || r.latency_ms < best_lat ||
              (r.latency_ms == best_lat && r.worker < best_cold)) {
            best_cold = r.worker;
            best_lat = r.latency_ms;
          }
        } else if (best_hot < 0 || r.rif < best_hot_rif ||
                   (r.rif == best_hot_rif && r.worker < best_hot)) {
          best_hot = r.worker;
          best_hot_rif = r.rif;
        }
      }
      if (best_hot >= 0) {
        const int chosen = best_cold >= 0 ? best_cold : best_hot;
        pool_->note_use(chosen);
        ++probe_picks_;
        return chosen;
      }

      // Quiet regime — probes show no congestion the local bookkeeping
      // misses: rank by current_load, with the probed global RIF breaking
      // the ties mod_jk would hand to the lowest worker index. Tie-break
      // reads spend no reuse budget.
      const double min_lb =
          records[static_cast<std::size_t>(eligible.lowest_lb_value())]
              .lb_value;
      int best = -1;
      double best_rif = 0.0;
      bool probed_best = false;
      int tied = 0;
      for (int idx : eligible) {
        if (records[static_cast<std::size_t>(idx)].lb_value != min_lb)
          continue;
        ++tied;
        double rif = 0.0;
        bool probed = false;
        for (const auto& r : fresh)
          if (r.worker == idx) {
            rif = r.rif;
            probed = true;
            break;
          }
        // A probed candidate beats an unprobed one; among probed, lower
        // corrected RIF wins; otherwise first index (the strict < keeps
        // mod_jk's scan order for equal candidates).
        if (best < 0 || (probed && !probed_best) ||
            (probed && probed_best && rif < best_rif)) {
          best = idx;
          best_rif = rif;
          probed_best = probed;
        }
      }
      if (tied > 1 && probed_best)
        ++tiebreak_picks_;
      else
        ++fallback_picks_;
      return best;
    }
  }
  return fallback(records, eligible, rng);
}

}  // namespace ntier::lb
