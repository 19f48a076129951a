// The balancer's incremental index (lb/worker_index.h) against the linear
// scan it replaced.
//
// - WorkerIndex: random membership/lb_value edits, every query checked
//   against a brute-force recount.
// - LoadBalancer oracle: a seeded random mix of assigns, responses, failure
//   reports, probes (trip, half-open, re-open), breaker resets, decays,
//   pool shrinks (forcing retries with a non-empty tried set) and clock
//   advances across state_until. At every decision an oracle policy re-derives
//   the eligible list with the pre-index scan — lazy Busy/Error recovery, skip
//   events in index order — checks the EligibleSet against it, runs the
//   pre-index vector version of the policy on a copy of the RNG, and requires
//   the same pick, the same RNG state and the same skip-event sequence.
// - Golden digests: FNV-1a of the --trace JSONL and --json summary of short
//   ntier_run configurations, recorded before the index existed.

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include <unistd.h>

#include "cli/cli.h"
#include "lb/load_balancer.h"
#include "lb/worker_index.h"
#include "obs/trace.h"
#include "sim/simulation.h"
#include "test_util.h"

namespace ntier::lb {
namespace {

using sim::SimTime;

constexpr int kWidths[] = {1, 2, 63, 64, 65, 256, 1024};

/// The first-minimum strict-< scan mod_jk runs (and LbPolicy::pick ran).
int scan_lowest(const std::vector<WorkerRecord>& records,
                const std::vector<int>& members) {
  int best = -1;
  double best_value = 0;
  for (int idx : members) {
    const double v = records[static_cast<std::size_t>(idx)].lb_value;
    if (best < 0 || v < best_value) {
      best = idx;
      best_value = v;
    }
  }
  return best;
}

void expect_set_equals(const EligibleSet& set,
                       const std::vector<WorkerRecord>& records,
                       const std::vector<int>& members) {
  ASSERT_EQ(set.size(), members.size());
  EXPECT_EQ(set.empty(), members.empty());
  std::vector<int> iterated(set.begin(), set.end());
  ASSERT_EQ(iterated, members);
  for (std::size_t k = 0; k < members.size(); ++k)
    ASSERT_EQ(set.nth(k), members[k]) << "k=" << k;
  std::vector<char> in(records.size(), 0);
  for (int m : members) in[static_cast<std::size_t>(m)] = 1;
  for (std::size_t i = 0; i < records.size(); ++i)
    ASSERT_EQ(set.contains(static_cast<int>(i)), in[i] != 0) << "i=" << i;
  EXPECT_FALSE(set.contains(-1));
  EXPECT_FALSE(set.contains(static_cast<int>(records.size())));
  EXPECT_EQ(set.lowest_lb_value(), scan_lowest(records, members));
}

TEST(WorkerIndex, MatchesBruteForceUnderRandomEdits) {
  for (int n : kWidths) {
    SCOPED_TRACE("n=" + std::to_string(n));
    std::vector<WorkerRecord> recs(static_cast<std::size_t>(n));
    WorkerIndex index(recs);
    std::vector<char> forced(recs.size(), 1);  // membership set() last wrote
    sim::Rng rng(static_cast<std::uint64_t>(n));
    for (int step = 0; step < 600; ++step) {
      const auto i = static_cast<std::size_t>(rng.uniform_int(0, n - 1));
      auto& rec = recs[i];
      switch (rng.uniform_int(0, 3)) {
        case 0:  // few distinct values so ties are common
          rec.lb_value = static_cast<double>(rng.uniform_int(0, 3));
          break;
        case 1:
          rec.state = static_cast<WorkerState>(rng.uniform_int(0, 2));
          break;
        case 2:
          rec.breaker_open = rng.bernoulli(0.3);
          break;
        default:
          forced[i] = rng.bernoulli(0.5) ? 1 : 0;
          index.set(static_cast<int>(i), forced[i] != 0);
          break;
      }
      if (rng.bernoulli(0.8)) {
        index.touch(static_cast<int>(i));
        forced[i] = WorkerIndex::in_rotation(rec) ? 1 : 0;
      } else {
        index.set(static_cast<int>(i), forced[i] != 0);
      }
      std::vector<int> members;
      for (std::size_t j = 0; j < recs.size(); ++j)
        if (forced[j] != 0) members.push_back(static_cast<int>(j));
      ASSERT_NO_FATAL_FAILURE(expect_set_equals(index, recs, members));
      std::uint64_t outside = 0;
      for (std::size_t w = 0; w < index.num_words(); ++w)
        outside += static_cast<std::uint64_t>(std::popcount(index.outside(w)));
      EXPECT_EQ(outside, recs.size() - members.size());
    }
  }
}

/// Records the balancer's skip and attempt events as they are emitted.
struct BalancerEvents : obs::TraceSink {
  std::vector<obs::TraceEvent> pending_skips;  // since the last decision
  std::map<std::uint64_t, std::vector<int>> tried;  // by request id

  void observe(const obs::TraceEvent& e) override {
    if (e.kind == obs::EventKind::kGetEndpointSkip) pending_skips.push_back(e);
    if (e.kind == obs::EventKind::kGetEndpointAttempt)
      tried[e.request].push_back(e.worker);
  }
};

/// Wraps a built-in policy. At each decision: re-derive the eligible list
/// and skip events with the pre-index scan, check them against what the
/// balancer produced, and check the policy's pick and RNG use against its
/// pre-index vector implementation.
class OraclePolicy final : public LbPolicy {
 public:
  OraclePolicy(PolicyKind kind, const sim::Simulation& simu,
               BalancerEvents& events)
      : inner_(make_policy(kind)), simu_(simu), events_(events) {}

  PolicyKind kind() const override { return inner_->kind(); }
  void on_assigned(WorkerRecord& rec, const proto::Request& req) override {
    inner_->on_assigned(rec, req);
  }
  void on_completed(WorkerRecord& rec, const proto::Request& req) override {
    inner_->on_completed(rec, req);
  }

  int pick_for(const std::vector<WorkerRecord>& records,
               const EligibleSet& eligible, sim::Rng& rng,
               const proto::Request& req) override {
    ++decisions;
    if (events_.tried[req.id].size() > 0) ++retry_decisions;
    const std::vector<int> expected = check_scan(records, req);
    expect_set_equals(eligible, records, expected);
    sim::Rng reference_rng = rng;
    const int want = reference_pick(records, expected, reference_rng, req);
    const int got = inner_->pick_for(records, eligible, rng, req);
    EXPECT_EQ(got, want) << to_string(kind()) << " request " << req.id;
    sim::Rng a = rng;
    sim::Rng b = reference_rng;
    EXPECT_EQ(a.next_u64(), b.next_u64()) << "RNG state diverged";
    return got;
  }

  /// A decision that ended without a pick (balancer error): every untried
  /// worker must have been skipped, unless sticky_force refused first.
  void check_no_pick(const std::vector<WorkerRecord>& records,
                     const proto::Request& req, bool sticky_refusal) {
    if (sticky_refusal) {
      EXPECT_TRUE(events_.pending_skips.empty());  // refused before any scan
      return;
    }
    EXPECT_TRUE(check_scan(records, req).empty());
  }

  int decisions = 0;
  int retry_decisions = 0;

 private:
  /// The pre-index scan: eligible workers in index order, with the skip
  /// events it would have traced compared against the ones traced.
  std::vector<int> check_scan(const std::vector<WorkerRecord>& records,
                              const proto::Request& req) {
    const auto& tried = events_.tried[req.id];
    std::vector<int> eligible;
    std::vector<obs::TraceEvent> skips;
    for (std::size_t i = 0; i < records.size(); ++i) {
      const int w = static_cast<int>(i);
      if (std::find(tried.begin(), tried.end(), w) != tried.end()) continue;
      const auto& rec = records[i];
      const bool ok = !rec.breaker_open &&
                      (rec.state == WorkerState::kAvailable ||
                       simu_.now() >= rec.state_until);
      if (ok) {
        eligible.push_back(w);
        continue;
      }
      obs::TraceEvent e;
      e.worker = w;
      e.value = rec.lb_value;
      e.aux = rec.breaker_open ? 3 : static_cast<std::int32_t>(rec.state);
      skips.push_back(e);
    }
    const auto& got = events_.pending_skips;
    EXPECT_EQ(got.size(), skips.size()) << "request " << req.id;
    for (std::size_t k = 0; k < std::min(got.size(), skips.size()); ++k) {
      EXPECT_EQ(got[k].request, req.id);
      EXPECT_EQ(got[k].worker, skips[k].worker) << "skip " << k;
      EXPECT_EQ(got[k].value, skips[k].value) << "skip " << k;
      EXPECT_EQ(got[k].aux, skips[k].aux) << "skip " << k;
    }
    events_.pending_skips.clear();
    return eligible;
  }

  /// Each policy's pick over a std::vector<int> eligible list, as written
  /// before the EligibleSet view.
  int reference_pick(const std::vector<WorkerRecord>& records,
                     const std::vector<int>& e, sim::Rng& rng,
                     const proto::Request& req) {
    const auto n = static_cast<std::int64_t>(e.size());
    const auto at = [&e](std::int64_t k) {
      return e[static_cast<std::size_t>(k)];
    };
    switch (kind()) {
      case PolicyKind::kRoundRobin:
        return e[rr_next_++ % e.size()];
      case PolicyKind::kRandom:
        return at(rng.uniform_int(0, n - 1));
      case PolicyKind::kTwoChoices: {
        if (n == 1) return e[0];
        const int a = at(rng.uniform_int(0, n - 1));
        int b = a;
        while (b == a) b = at(rng.uniform_int(0, n - 1));
        return records[static_cast<std::size_t>(a)].outstanding <=
                       records[static_cast<std::size_t>(b)].outstanding
                   ? a
                   : b;
      }
      case PolicyKind::kSourceHash: {
        const std::uint64_t h =
            sim::Rng::mix64(static_cast<std::uint64_t>(req.client) + 1);
        const int preferred = static_cast<int>(h % records.size());
        for (int idx : e)
          if (idx == preferred) return preferred;
        return e[static_cast<std::size_t>((h >> 17) % e.size())];
      }
      default:  // lb_value ranking; unbound probe policies fall back to it
        return scan_lowest(records, e);
    }
  }

  std::unique_ptr<LbPolicy> inner_;
  const sim::Simulation& simu_;
  BalancerEvents& events_;
  std::size_t rr_next_ = 0;
};

struct OracleCase {
  PolicyKind policy;
  int workers;
  MechanismKind mechanism;
  bool weighted;
  bool sticky;
  bool sticky_force;
};

std::string describe(const OracleCase& c) {
  std::ostringstream os;
  os << to_string(c.policy) << " n=" << c.workers
     << " mech=" << static_cast<int>(c.mechanism)
     << (c.weighted ? " weighted" : "") << (c.sticky ? " sticky" : "")
     << (c.sticky_force ? " force" : "");
  return os.str();
}

/// The balancer's records, all of them, in index order.
std::vector<WorkerRecord> lb_records(const LoadBalancer& lb) {
  std::vector<WorkerRecord> out;
  for (int i = 0; i < lb.num_workers(); ++i) out.push_back(lb.record(i));
  return out;
}

/// Drive one balancer through a seeded random operation mix; the oracle
/// policy checks every decision. Returns (decisions, retry decisions).
std::pair<int, int> run_oracle(const OracleCase& c, std::uint64_t seed) {
  sim::Simulation simu(seed);
  BalancerEvents events;
  obs::TraceConfig tc;
  tc.ring = false;
  obs::TraceCollector trace(tc);
  trace.add_sink(&events);

  BalancerConfig cfg;
  cfg.endpoint_pool_size = 2;
  cfg.busy_recovery = SimTime::millis(10);
  cfg.error_recovery = SimTime::millis(40);
  cfg.failures_to_error = 3;
  cfg.blocking.sleep_interval = SimTime::millis(2);
  cfg.blocking.acquire_timeout = SimTime::millis(6);
  cfg.sticky_sessions = c.sticky;
  cfg.sticky_force = c.sticky_force;
  cfg.breaker.enabled = true;
  cfg.breaker.ewma_alpha = 0.5;
  cfg.breaker.trip_threshold = 0.4;
  cfg.breaker.open_duration = SimTime::millis(5);
  cfg.breaker.half_open_trials = 2;
  cfg.breaker.reopen_probe_successes = 2;
  sim::Rng ops(seed ^ 0x5eed);
  if (c.weighted) {
    const double weights[] = {0.5, 1.0, 2.0, 3.0};
    for (int i = 0; i < c.workers; ++i)
      cfg.worker_weights.push_back(weights[ops.uniform_int(0, 3)]);
  }

  auto owned = std::make_unique<OraclePolicy>(c.policy, simu, events);
  OraclePolicy& oracle = *owned;
  LoadBalancer lb(simu, c.workers, std::move(owned),
                  make_acquirer(c.mechanism, cfg.blocking), cfg);
  lb.set_trace(&trace, 0);

  std::vector<std::pair<int, proto::RequestPtr>> outstanding;
  std::uint64_t next_id = 1;
  const auto worker = [&] {
    return static_cast<int>(ops.uniform_int(0, c.workers - 1));
  };
  const int steps = c.workers >= 256 ? 500 : 300;
  for (int step = 0; step < steps && !::testing::Test::HasFailure(); ++step) {
    const auto op = ops.uniform_int(0, 99);
    if (op < 40) {
      auto req = std::make_shared<proto::Request>();
      req->id = next_id++;
      req->client = static_cast<int>(ops.uniform_int(0, 40));
      req->request_bytes = 400;
      req->response_bytes = static_cast<std::uint32_t>(ops.uniform_int(1, 4000));
      req->session_route = ops.bernoulli(0.3) ? -1 : worker();
      lb.assign(req, [&, req](int idx) {
        if (idx >= 0) {
          outstanding.emplace_back(idx, req);
          return;
        }
        oracle.check_no_pick(lb_records(lb), *req,
                             c.sticky_force && req->session_route >= 0);
      });
    } else if (op < 62) {
      if (outstanding.empty()) continue;
      const auto k = static_cast<std::size_t>(
          ops.uniform_int(0, static_cast<std::int64_t>(outstanding.size()) - 1));
      const auto [idx, req] = outstanding[k];
      outstanding.erase(outstanding.begin() + static_cast<std::ptrdiff_t>(k));
      lb.on_response(idx, req);
    } else if (op < 68) {
      lb.report_failure(worker());
    } else if (op < 80) {
      lb.report_probe(worker(), ops.bernoulli(0.55), SimTime::millis(1));
    } else if (op < 82) {
      lb.reset_breakers();
    } else if (op < 85) {
      lb.decay_now();
    } else if (op < 90) {
      // Shrink or restore a pool: a full pool makes its acquisitions fail,
      // so the request retries with that worker in its tried set.
      lb.mutable_pool(worker()).set_capacity(
          static_cast<std::size_t>(ops.uniform_int(0, 2)));
    } else {
      simu.run_until(simu.now() + SimTime::from_millis(ops.uniform(0, 25)));
    }
  }
  return {oracle.decisions, oracle.retry_decisions};
}

class LoadBalancerOracle : public ::testing::TestWithParam<PolicyKind> {};

TEST_P(LoadBalancerOracle, PicksAndSkipsMatchTheLinearScan) {
  int decisions = 0;
  int retries = 0;
  std::uint64_t seed = 1;
  for (int n : kWidths)
    for (auto mech : {MechanismKind::kNonBlocking, MechanismKind::kBlocking})
      for (bool weighted : {false, true})
        for (int sticky = 0; sticky < 3; ++sticky) {
          const OracleCase c{GetParam(), n, mech, weighted, sticky > 0,
                             sticky == 2};
          SCOPED_TRACE(describe(c));
          const auto [d, r] = run_oracle(c, seed++);
          decisions += d;
          retries += r;
          if (HasFailure()) return;
        }
  // The mix must actually exercise decisions, including retries.
  EXPECT_GT(decisions, 5000);
  EXPECT_GT(retries, 200);
}

INSTANTIATE_TEST_SUITE_P(
    EveryPolicy, LoadBalancerOracle,
    ::testing::Values(PolicyKind::kTotalRequest, PolicyKind::kTotalTraffic,
                      PolicyKind::kCurrentLoad, PolicyKind::kSessions,
                      PolicyKind::kRoundRobin, PolicyKind::kRandom,
                      PolicyKind::kTwoChoices, PolicyKind::kPowerOfD,
                      PolicyKind::kPrequal, PolicyKind::kSourceHash),
    [](const auto& p) { return to_string(p.param); });

// -- golden digests -----------------------------------------------------------

std::string file_digest(const std::string& path) {
  std::ifstream f(path, std::ios::binary);
  EXPECT_TRUE(f.good()) << "cannot read " << path;
  std::ostringstream bytes;
  bytes << f.rdbuf();
  return experiment::testing::fnv1a_hex(bytes.str());
}

TEST(LbGolden, TraceAndSummaryBytesMatchTheLinearScan) {
  std::ifstream golden(std::string(NTIER_GOLDEN_DIR) + "/lb_decisions.fnv");
  ASSERT_TRUE(golden.good());
  const auto dir = std::filesystem::temp_directory_path() /
                   ("lb_golden_" + std::to_string(::getpid()));
  std::filesystem::create_directories(dir);
  const std::string trace = (dir / "t.jsonl").string();
  const std::string json = (dir / "s.json").string();
  int configs = 0;
  for (std::string line; std::getline(golden, line);) {
    if (line.empty() || line[0] == '#') continue;
    std::istringstream in(line);
    std::string want_trace, want_json;
    in >> want_trace >> want_json;
    std::vector<std::string> args;
    for (std::string a; in >> a;) args.push_back(a);
    SCOPED_TRACE(line);
    args.insert(args.end(), {"--trace", trace, "--json", json, "--quiet"});
    auto parsed = cli::parse_cli(args);
    ASSERT_TRUE(parsed.options.has_value()) << parsed.error;
    ASSERT_EQ(cli::run_cli(*parsed.options), 0);
    EXPECT_EQ(file_digest(trace), want_trace);
    EXPECT_EQ(file_digest(json), want_json);
    ++configs;
  }
  std::filesystem::remove_all(dir);
  EXPECT_GE(configs, 2);
}

}  // namespace
}  // namespace ntier::lb
