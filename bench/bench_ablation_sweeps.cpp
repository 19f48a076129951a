// Ablation sweeps over the design parameters DESIGN.md calls out. Each
// sweep varies one knob of the stock (total_request + blocking) system under
// millibottlenecks and reports mean RT / %VLRT, showing *why* each default
// matters:
//   * cache_acquire_timeout — how long workers park inside get_endpoint
//   * JK_SLEEP_DEF          — the poll interval of Algorithm 1
//   * endpoint pool size    — when the funnel starts to block workers
//   * busy_recovery         — how long the remedy sidelines a Busy worker
//   * RTO schedule          — where the VLRT clusters sit
//   * flush interval        — millibottleneck frequency vs severity
//   * writeback bandwidth   — millibottleneck duration
#include "bench_common.h"

using namespace ntier;
using namespace ntier::bench;

namespace {

sim::SimTime duration_for(const BenchOptions& opt) {
  return opt.full ? sim::SimTime::seconds(60) : sim::SimTime::seconds(15);
}

void report(const std::string& setting, Experiment& e) {
  const experiment::RunSummary s = experiment::summarize(e);
  std::cout << "  " << std::left << std::setw(32) << setting << std::right
            << std::setw(10) << s.completed << std::setw(11) << std::fixed
            << std::setprecision(2) << s.mean_rt_ms << std::setw(10)
            << std::setprecision(2) << 100 * s.vlrt_fraction << "%"
            << std::setw(10) << s.connection_drops << std::setw(10)
            << s.balancer_errors << "\n";
}

void sweep_header(const std::string& title) {
  std::cout << "\n--- " << title << " ---\n  " << std::left << std::setw(32)
            << "setting" << std::right << std::setw(10) << "#req"
            << std::setw(11) << "avgRT(ms)" << std::setw(11) << "%VLRT"
            << std::setw(10) << "drops" << std::setw(10) << "503s" << "\n";
}

}  // namespace

int main(int argc, char** argv) {
  const auto opt = BenchOptions::parse(argc, argv);
  header("Ablations", "sensitivity of the instability to each design knob");

  auto base = [&] {
    ExperimentConfig c = cluster_config(opt, PolicyKind::kTotalRequest,
                                        MechanismKind::kBlocking);
    c.duration = duration_for(opt);
    c.tracing = false;
    return c;
  };

  sweep_header("cache_acquire_timeout (Algorithm 1 park time)");
  for (const auto t : {50, 100, 300, 900}) {
    ExperimentConfig c = base();
    c.balancer.blocking.acquire_timeout = sim::SimTime::millis(t);
    auto e = run_experiment(opt, std::move(c), false);
    report(std::to_string(t) + " ms", *e);
  }

  sweep_header("JK_SLEEP_DEF (poll interval)");
  for (const auto t : {10, 50, 100}) {
    ExperimentConfig c = base();
    c.balancer.blocking.sleep_interval = sim::SimTime::millis(t);
    auto e = run_experiment(opt, std::move(c), false);
    report(std::to_string(t) + " ms", *e);
  }

  sweep_header("endpoint pool size (per Apache-Tomcat pair)");
  for (const auto n : {25, 50, 100, 200}) {
    ExperimentConfig c = base();
    c.balancer.endpoint_pool_size = static_cast<std::size_t>(n);
    auto e = run_experiment(opt, std::move(c), false);
    report(std::to_string(n) + " endpoints", *e);
  }

  sweep_header("busy_recovery under the modified get_endpoint");
  for (const auto t : {10, 100, 500, 2000}) {
    ExperimentConfig c = base();
    c.mechanism = MechanismKind::kNonBlocking;
    c.balancer.busy_recovery = sim::SimTime::millis(t);
    auto e = run_experiment(opt, std::move(c), false);
    report(std::to_string(t) + " ms", *e);
  }

  sweep_header("client RTO schedule (VLRT cluster positions)");
  {
    ExperimentConfig c = base();
    c.retransmit = net::RetransmitSchedule::constant(sim::SimTime::seconds(1), 5);
    auto e = run_experiment(opt, std::move(c), false);
    report("constant 1s (paper clusters)", *e);
    std::cout << "      p99.9 = " << e->log().percentile_ms(99.9) << " ms\n";
  }
  {
    ExperimentConfig c = base();
    c.retransmit = net::RetransmitSchedule::exponential(sim::SimTime::seconds(1), 5);
    auto e = run_experiment(opt, std::move(c), false);
    report("exponential 1s,2s,4s,...", *e);
    std::cout << "      p99.9 = " << e->log().percentile_ms(99.9) << " ms\n";
  }
  {
    ExperimentConfig c = base();
    c.retransmit = net::RetransmitSchedule::constant(sim::SimTime::seconds(3), 5);
    auto e = run_experiment(opt, std::move(c), false);
    report("constant 3s (classic BSD)", *e);
    std::cout << "      p99.9 = " << e->log().percentile_ms(99.9) << " ms\n";
  }

  sweep_header("pdflush interval (millibottleneck cadence)");
  for (const auto t : {2500, 5000, 10000}) {
    ExperimentConfig c = base();
    c.tomcat_pdflush.flush_interval = sim::SimTime::millis(t);
    auto e = run_experiment(opt, std::move(c), false);
    report(std::to_string(t) + " ms", *e);
  }

  sweep_header("effective writeback bandwidth (stall duration)");
  for (const auto mb : {30, 60, 120, 240}) {
    ExperimentConfig c = base();
    c.disk_bytes_per_second = mb * 1024.0 * 1024.0;
    auto e = run_experiment(opt, std::move(c), false);
    report(std::to_string(mb) + " MB/s", *e);
  }

  std::cout << "\n(interpretation: longer park times, smaller pools and longer\n"
               " stalls all deepen the funnel; the VLRT clusters move with the\n"
               " RTO schedule, confirming retransmission as the mechanism behind\n"
               " the 1s/2s/3s peaks of Fig. 4. The busy_recovery extremes show\n"
               " the trade-off the paper's conservative remedy walks: re-probing\n"
               " every 10 ms escalates a single millibottleneck into the Error\n"
               " state (a millibottleneck is indistinguishable from permanent\n"
               " failure in the moment, §IV-C), while sidelining for seconds\n"
               " turns one stalled server into 503s whenever the others blip —\n"
               " both visible as balancer errors in the 503s column)\n";
  return 0;
}
