#include "metrics/telemetry.h"

#include <charconv>
#include <stdexcept>

namespace ntier::metrics {

using obs::EventKind;
using obs::Tier;

// ---- Instrument / registry ---------------------------------------------------

namespace {

void append_double(std::string& out, double v) {
  char buf[64];
  auto [ptr, ec] = std::to_chars(buf, buf + sizeof buf, v);
  out.append(buf, static_cast<std::size_t>(ptr - buf));
}

}  // namespace

void Instrument::to_csv(std::ostream& os) const {
  const TimeSeries& s = series();
  const double width_s = s.window().to_seconds();
  std::string line;
  for (std::size_t i = 0; i < s.num_windows(); ++i) {
    if (!s.count(i)) continue;
    line = name_;
    line += ',';
    append_double(line, static_cast<double>(i) * width_s);
    line += ',';
    append_double(line, width_s);
    line += ',';
    append_double(line, static_cast<double>(s.count(i)));
    line += ',';
    append_double(line, s.avg(i));
    line += ',';
    append_double(line, s.max(i));
    line += '\n';
    os << line;
  }
}

Instrument& TelemetryRegistry::instrument(const std::string& name) {
  auto it = instruments_.find(name);
  if (it == instruments_.end())
    it = instruments_.emplace(name, std::make_unique<Instrument>(name)).first;
  return *it->second;
}

void TelemetryRegistry::add_view(const std::string& name,
                                 const TimeSeries& source) {
  const bool added =
      instruments_.emplace(name, std::make_unique<Instrument>(name, source))
          .second;
  if (!added) throw std::invalid_argument("telemetry: " + name + " exists");
}

const Instrument* TelemetryRegistry::find(const std::string& name) const {
  auto it = instruments_.find(name);
  return it == instruments_.end() ? nullptr : it->second.get();
}

void TelemetryRegistry::to_csv(std::ostream& os) const {
  os << "instrument,window_start_s,width_s,count,avg,max\n";
  for_each([&os](const Instrument& ins) { ins.to_csv(os); });
}

// ---- TelemetryFeed -----------------------------------------------------------

TelemetryFeed::TelemetryFeed(TelemetryRegistry& registry, int num_tomcats) {
  retransmits_ = &registry.instrument("client.syn_retransmit");
  cache_hit_ = &registry.instrument("cache.hit");
  cache_backlog_ = &registry.instrument("cache.inval_backlog");
  committed_.reserve(static_cast<std::size_t>(num_tomcats));
  iowait_.reserve(static_cast<std::size_t>(num_tomcats));
  for (int i = 0; i < num_tomcats; ++i) {
    const std::string idx = std::to_string(i);
    committed_.push_back(&registry.instrument("tomcat" + idx + ".committed"));
    iowait_.push_back(&registry.instrument("tomcat" + idx + ".iowait"));
  }
  committed_now_.assign(static_cast<std::size_t>(num_tomcats), 0.0);
}

void TelemetryFeed::observe(const obs::TraceEvent& e) {
  if (const int delta = obs::committed_delta(e)) {
    const std::size_t w = static_cast<std::size_t>(e.worker);
    if (e.worker < 0 || w >= committed_.size()) return;
    committed_now_[w] += delta;
    committed_[w]->record(e.at, committed_now_[w]);
    return;
  }
  switch (e.kind) {
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

}  // namespace ntier::metrics
