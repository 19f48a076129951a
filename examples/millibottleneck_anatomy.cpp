// Walks through the anatomy of one millibottleneck on a single node, using
// the OS substrate directly (no n-tier stack): dirty pages accumulate from
// log writes, pdflush kicks in, the disk saturates (iowait), the foreground
// CPU starves, and a queue of CPU jobs builds and drains — the causal chain
// of paper §III-B, one stage at a time.
#include <iomanip>
#include <iostream>

#include "metrics/sampler.h"
#include "os/node.h"
#include "sim/simulation.h"

using namespace ntier;

int main() {
  sim::Simulation simu(1);

  os::NodeConfig nc;
  nc.name = "tomcat1";
  nc.cores = 4;
  nc.disk_bytes_per_second = 100.0 * (1 << 20);
  nc.pdflush.flush_interval = sim::SimTime::seconds(5);
  nc.pdflush.cpu_stall_severity = 0.97;
  os::Node node(simu, nc);

  // A synthetic foreground load: 2 500 "requests"/s of 0.55 ms CPU each,
  // every one of which appends ~1.2 KiB of log data.
  auto rng = simu.rng().fork();
  int queued = 0;
  std::function<void()> arrival = [&] {
    ++queued;
    node.cpu().submit(sim::SimTime::from_millis(0.55), [&] {
      --queued;
      node.page_cache().write_dirty(1200);
    });
    simu.after(rng.exponential_time(sim::SimTime::from_millis(0.4)), arrival);
  };
  simu.after(sim::SimTime::zero(), arrival);

  const sim::SimTime window = sim::SimTime::millis(50);
  metrics::TimeSeries cpu_util(window), iowait(window), queue(window);
  metrics::GaugeSeries dirty(window);
  node.page_cache().set_dirty_series(&dirty);
  metrics::PeriodicSampler sampler(simu, window, [&](sim::SimTime start) {
    cpu_util.record(start, node.cpu().probe_utilisation().combined());
    iowait.record(start, node.disk().probe_busy_fraction());
    queue.record(start, static_cast<double>(queued));
  });

  simu.run_until(sim::SimTime::seconds(12));
  dirty.finish(simu.now());

  std::cout << "One node, 12 s, pdflush every 5 s\n";
  std::cout << "time   cpu%   iowait%  queued  dirty(MB)  flushing\n";
  const auto& flushes = node.pdflush().episodes();
  for (std::size_t w = 0; w < cpu_util.num_windows(); w += 4) {
    const auto t = window * static_cast<std::int64_t>(w);
    bool flushing = false;
    for (const auto& f : flushes)
      if (t >= f.start && t < f.end) flushing = true;
    std::cout << std::fixed << std::setprecision(2) << std::setw(5)
              << t.to_seconds() << "  " << std::setw(5)
              << 100 * cpu_util.avg(w) << "  " << std::setw(7)
              << 100 * iowait.avg(w) << "  " << std::setw(6)
              << queue.avg(w) << "  " << std::setw(9)
              << dirty.time_avg(w) / (1 << 20) << "  "
              << (flushing ? "  <== millibottleneck" : "") << "\n";
  }

  std::cout << "\npdflush episodes:\n";
  for (const auto& f : flushes)
    std::cout << "  " << f.start.to_string() << " .. " << f.end.to_string()
              << "  (" << f.bytes / 1024 << " KiB, "
              << (f.end - f.start).to_millis() << " ms stall)\n";
  return 0;
}
