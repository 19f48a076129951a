#include "obs/telemetry.h"

#include <charconv>

namespace ntier::obs {

// ---- MultiResTimeline --------------------------------------------------------

namespace {

constexpr auto kFinePerCoarse =
    static_cast<std::size_t>(kCoarseWindow.ns() / sim::kMetricWindow.ns());

}  // namespace

MultiResTimeline::MultiResTimeline(const TelemetryConfig& cfg)
    : sketch_cfg_(cfg.sketch), run_sketch_(cfg.sketch) {}

void MultiResTimeline::evict_oldest_fine() {
  const std::size_t coarse_abs = fine_base_ / kFinePerCoarse;
  if (coarse_slots_.empty()) coarse_base_ = coarse_abs;
  while (coarse_base_ + coarse_slots_.size() <= coarse_abs)
    coarse_slots_.emplace_back(sketch_cfg_);
  Slot& target = coarse_slots_[coarse_abs - coarse_base_];
  Slot& src = fine_slots_.front();
  target.stats.merge(src.stats);
  target.sketch.merge(src.sketch);
  fine_slots_.pop_front();
  ++fine_base_;
  while (coarse_slots_.size() > kCoarseRetention) {
    coarse_slots_.pop_front();
    ++coarse_base_;
    ++coarse_dropped_;
  }
}

void MultiResTimeline::advance_to(std::size_t fine_abs) {
  if (fine_slots_.empty()) fine_base_ = fine_abs;
  while (fine_base_ + fine_slots_.size() <= fine_abs) {
    fine_slots_.emplace_back(sketch_cfg_);
    if (fine_slots_.size() > kFineRetention) evict_oldest_fine();
  }
}

void MultiResTimeline::record(sim::SimTime t, double v) {
  std::size_t w = static_cast<std::size_t>(t.ns() / sim::kMetricWindow.ns());
  if (!fine_slots_.empty() && w < fine_base_) w = fine_base_;  // late sample
  advance_to(w);
  Slot& slot = fine_slots_[w - fine_base_];
  slot.stats.add(v);
  slot.sketch.record(v);
  totals_.add(v);
  run_sketch_.record(v);
  ++recorded_;
}

const WindowStats* MultiResTimeline::fine_stats(std::size_t i) const {
  if (i < fine_base_ || i >= fine_end()) return nullptr;
  return &fine_slots_[i - fine_base_].stats;
}

const DDSketch* MultiResTimeline::fine_sketch(std::size_t i) const {
  if (i < fine_base_ || i >= fine_end()) return nullptr;
  return &fine_slots_[i - fine_base_].sketch;
}

double MultiResTimeline::fine_quantile(std::size_t i, double q) const {
  const DDSketch* s = fine_sketch(i);
  return s ? s->quantile(q) : 0.0;
}

const WindowStats* MultiResTimeline::coarse_stats(std::size_t i) const {
  if (i < coarse_base_ || i >= coarse_end()) return nullptr;
  return &coarse_slots_[i - coarse_base_].stats;
}

const DDSketch* MultiResTimeline::coarse_sketch(std::size_t i) const {
  if (i < coarse_base_ || i >= coarse_end()) return nullptr;
  return &coarse_slots_[i - coarse_base_].sketch;
}

// ---- Instrument / registry ---------------------------------------------------

namespace {

void append_double(std::string& out, double v) {
  char buf[64];
  auto [ptr, ec] = std::to_chars(buf, buf + sizeof buf, v);
  out.append(buf, static_cast<std::size_t>(ptr - buf));
}

void csv_row(std::ostream& os, const std::string& name, double start_s,
             double width_s, const WindowStats& stats, const DDSketch& sketch) {
  std::string line = name;
  line += ',';
  append_double(line, start_s);
  line += ',';
  append_double(line, width_s);
  line += ',';
  append_double(line, static_cast<double>(stats.count));
  line += ',';
  append_double(line, stats.avg());
  line += ',';
  append_double(line, stats.max_or_zero());
  line += ',';
  append_double(line, sketch.quantile(0.50));
  line += ',';
  append_double(line, sketch.quantile(0.95));
  line += ',';
  append_double(line, sketch.quantile(0.99));
  line += '\n';
  os << line;
}

}  // namespace

void Instrument::to_csv(std::ostream& os) const {
  const MultiResTimeline& tl = timeline_;
  const double fine_s = sim::kMetricWindow.to_seconds();
  const double coarse_s = kCoarseWindow.to_seconds();
  // Coarse history strictly before the live fine region, so rows never
  // double-count a window.
  const std::size_t live_coarse_start = tl.fine_begin() / kFinePerCoarse;
  for (std::size_t c = tl.coarse_begin(); c < tl.coarse_end(); ++c) {
    if (c >= live_coarse_start) break;
    const WindowStats* stats = tl.coarse_stats(c);
    const DDSketch* sketch = tl.coarse_sketch(c);
    if (!stats || !stats->count) continue;
    csv_row(os, name_, static_cast<double>(c) * coarse_s, coarse_s, *stats,
            *sketch);
  }
  for (std::size_t f = tl.fine_begin(); f < tl.fine_end(); ++f) {
    const WindowStats* stats = tl.fine_stats(f);
    const DDSketch* sketch = tl.fine_sketch(f);
    if (!stats || !stats->count) continue;
    csv_row(os, name_, static_cast<double>(f) * fine_s, fine_s, *stats,
            *sketch);
  }
}

Instrument& TelemetryRegistry::instrument(const std::string& name, Tier tier,
                                          int node) {
  auto it = instruments_.find(name);
  if (it == instruments_.end())
    it = instruments_
             .emplace(name, std::make_unique<Instrument>(name, tier, node, cfg_))
             .first;
  return *it->second;
}

const Instrument* TelemetryRegistry::find(const std::string& name) const {
  auto it = instruments_.find(name);
  return it == instruments_.end() ? nullptr : it->second.get();
}

void TelemetryRegistry::to_csv(std::ostream& os) const {
  os << "instrument,window_start_s,width_s,count,avg,max,p50,p95,p99\n";
  for_each([&os](const Instrument& ins) { ins.to_csv(os); });
}

// ---- TelemetryFeed -----------------------------------------------------------

TelemetryFeed::TelemetryFeed(TelemetryRegistry& registry, int num_tomcats) {
  rt_ = &registry.instrument("client.rt_ms", Tier::kClient);
  retransmits_ = &registry.instrument("client.syn_retransmit", Tier::kClient);
  cache_hit_ = &registry.instrument("cache.hit", Tier::kCache);
  cache_backlog_ = &registry.instrument("cache.inval_backlog", Tier::kCache);
  committed_.reserve(static_cast<std::size_t>(num_tomcats));
  iowait_.reserve(static_cast<std::size_t>(num_tomcats));
  for (int i = 0; i < num_tomcats; ++i) {
    const std::string idx = std::to_string(i);
    committed_.push_back(
        &registry.instrument("tomcat" + idx + ".committed", Tier::kTomcat, i));
    iowait_.push_back(
        &registry.instrument("tomcat" + idx + ".iowait", Tier::kTomcat, i));
  }
  committed_now_.assign(static_cast<std::size_t>(num_tomcats), 0.0);
}

void TelemetryFeed::observe(const TraceEvent& e) {
  if (const int delta = committed_delta(e)) {
    const std::size_t w = static_cast<std::size_t>(e.worker);
    if (e.worker < 0 || w >= committed_.size()) return;
    committed_now_[w] += delta;
    committed_[w]->record(e.at, committed_now_[w]);
    return;
  }
  switch (e.kind) {
    case EventKind::kClientDone:
      if (e.aux == 0) rt_->record(e.at, e.value);
      break;
    case EventKind::kSynRetransmit:
      retransmits_->record(e.at, 1.0);
      break;
    case EventKind::kIoWait: {
      if (e.tier != Tier::kTomcat) break;
      const std::size_t n = static_cast<std::size_t>(e.node);
      if (e.node < 0 || n >= iowait_.size()) break;
      iowait_[n]->record(e.at, e.value);
      break;
    }
    case EventKind::kCacheHit:
      cache_hit_->record(e.at, 1.0);
      break;
    case EventKind::kCacheMiss:
      cache_hit_->record(e.at, 0.0);
      break;
    case EventKind::kCacheInvalidate:
      // value carries the queue depth at delivery (aux=+1) or the full
      // capacity at a drop (aux=-1) — either way, the backlog signal.
      cache_backlog_->record(e.at, e.value);
      break;
    default:
      break;
  }
}

}  // namespace ntier::obs
