#include "workload/rubbos.h"

#include <algorithm>
#include <cmath>

namespace ntier::workload {

std::string to_string(Mix m) {
  return m == Mix::kBrowseOnly ? "browse_only" : "read_write";
}

std::string to_string(PriorityMix p) {
  return p == PriorityMix::kUniform ? "uniform" : "rubbos";
}

namespace {

/// Lognormal coefficient of variation applied to every CPU demand.
constexpr double kDemandCv = 0.3;

/// The 24 RUBBoS interactions. Weights follow the benchmark's transition
/// tables in spirit: browsing interactions dominate; the read/write mix adds
/// ~10 % write-path traffic. Demands are calibrated, not measured —
/// see DESIGN.md §2 (the *shape* of the load is what matters).
std::vector<InteractionType> build_table() {
  //                     name                    wB     wRW   apMs  tcMs  q  missMs  reqB  respB  logB
  return {
      {"StoriesOfTheDay",      20.0, 18.0, 0.45, 0.55, 1, 0.50,  420, 12000, 1300},
      {"Home",                 10.0,  9.0, 0.40, 0.35, 0, 0.00,  380,  6000,  900},
      {"BrowseCategories",      8.0,  7.0, 0.45, 0.50, 1, 0.40,  420,  7000, 1100},
      {"BrowseStoriesByCategory", 9.0, 8.0, 0.50, 0.65, 2, 0.50, 460, 14000, 1400},
      {"OlderStories",          6.0,  5.5, 0.50, 0.60, 2, 0.55,  450, 13000, 1300},
      {"ViewStory",            16.0, 14.0, 0.45, 0.60, 2, 0.45,  430, 16000, 1500},
      {"ViewComment",          10.0,  9.0, 0.45, 0.55, 2, 0.45,  440, 11000, 1300},
      {"Search",                4.0,  3.5, 0.50, 0.90, 3, 0.80,  470, 10000, 1200},
      {"SearchStories",         2.5,  2.2, 0.50, 0.85, 3, 0.80,  470, 10000, 1200},
      {"SearchComments",        1.5,  1.3, 0.50, 0.95, 3, 0.90,  470,  9000, 1100},
      {"SearchUsers",           1.0,  0.9, 0.45, 0.70, 2, 0.60,  450,  6000,  900},
      {"ViewUserInfo",          3.0,  2.6, 0.40, 0.45, 1, 0.40,  420,  5000,  900},
      {"AuthorLogin",           1.5,  1.4, 0.40, 0.40, 1, 0.35,  520,  3000,  800},
      {"AuthorTasks",           0.5,  0.6, 0.45, 0.55, 2, 0.50,  430,  7000, 1000},
      {"ReviewStories",         0.5,  0.6, 0.50, 0.70, 2, 0.60,  440,  9000, 1100},
      {"AcceptStory",           0.0,  0.4, 0.45, 0.60, 2, 0.55,  480,  4000, 1200},
      {"RejectStory",           0.0,  0.2, 0.45, 0.55, 2, 0.50,  480,  3500, 1100},
      {"SubmitStory",           0.0,  1.2, 0.50, 0.70, 1, 0.60,  900,  5000, 1600},
      {"StoreStory",            0.0,  1.0, 0.45, 0.80, 3, 0.90, 2500,  3000, 2400},
      {"PostComment",           0.0,  2.5, 0.50, 0.65, 1, 0.55,  800,  5000, 1500},
      {"StoreComment",          0.0,  2.2, 0.45, 0.75, 3, 0.85, 1800,  3000, 2200},
      {"ModerateComment",       0.0,  0.8, 0.45, 0.55, 2, 0.50,  460,  4500, 1100},
      {"RegisterUser",          0.2,  0.4, 0.45, 0.55, 1, 0.50,  700,  3500, 1300},
      {"StoreRegisterUser",     0.2,  0.4, 0.45, 0.70, 2, 0.80, 1100,  3000, 1800},
  };
}

/// Per-interaction brownout classes (indices follow build_table() order):
/// the whole author/write path is high (0) — a shed there loses user work;
/// searches and the archive page are low (2) — trivially retriable; the
/// remaining browse/view pages are normal (1).
void assign_priorities(std::vector<InteractionType>& table) {
  for (std::size_t i = 12; i <= 23; ++i) table[i].priority = 0;  // author/write
  table[4].priority = 2;                                         // OlderStories
  for (std::size_t i = 7; i <= 10; ++i) table[i].priority = 2;   // searches
}

/// Which interactions commit data, and with how many of their round trips
/// (indices follow build_table() order). The store/moderate pages end in a
/// commit; the multi-query stores also update an index row.
void assign_db_writes(std::vector<InteractionType>& table) {
  table[15].db_writes = 1;  // AcceptStory
  table[16].db_writes = 1;  // RejectStory
  table[18].db_writes = 2;  // StoreStory
  table[20].db_writes = 2;  // StoreComment
  table[21].db_writes = 1;  // ModerateComment
  table[23].db_writes = 1;  // StoreRegisterUser
}

}  // namespace

RubbosWorkload::RubbosWorkload(WorkloadParams params)
    : params_(params), table_(build_table()) {
  if (params_.priority_mix == PriorityMix::kRubbos) assign_priorities(table_);
  assign_db_writes(table_);
  weights_browse_.reserve(table_.size());
  weights_rw_.reserve(table_.size());
  for (const auto& t : table_) {
    weights_browse_.push_back(t.weight_browse);
    weights_rw_.push_back(t.weight_rw);
  }
  if (params_.key_space > 0) {
    // CDF over ranks: weight(rank) = (rank+1)^-s. Precomputed once so a key
    // draw is a binary search instead of Rng::zipf's linear scan.
    zipf_cdf_.reserve(params_.key_space);
    double total = 0;
    for (std::uint64_t r = 0; r < params_.key_space; ++r) {
      total += std::pow(static_cast<double>(r + 1), -params_.zipf_s);
      zipf_cdf_.push_back(total);
    }
    for (double& c : zipf_cdf_) c /= total;
  }
}

std::size_t RubbosWorkload::next_interaction(sim::Rng& rng) const {
  return rng.weighted_index(active_weights());
}

proto::RequestRef RubbosWorkload::make_request(proto::RequestPool& pool,
                                               sim::Rng& rng, std::uint64_t id,
                                               std::uint32_t client) const {
  return materialize(pool, rng, id, client, next_interaction(rng));
}

proto::RequestRef RubbosWorkload::materialize(proto::RequestPool& pool,
                                              sim::Rng& rng, std::uint64_t id,
                                              std::uint32_t client,
                                              std::size_t k) const {
  const InteractionType& it = table_.at(k);
  proto::RequestRef req = pool.make();
  req->id = id;
  req->client = client;
  req->interaction = static_cast<std::uint16_t>(k);
  const double s = params_.demand_scale;
  req->apache_demand = sim::SimTime::from_millis(
      rng.lognormal_mean(it.apache_demand_ms * s, kDemandCv));
  req->tomcat_demand = sim::SimTime::from_millis(
      rng.lognormal_mean(it.tomcat_demand_ms * s, kDemandCv));
  req->db_queries = static_cast<std::uint8_t>(it.db_queries);
  if (it.db_queries > 0) {
    const double per_query_ms =
        rng.bernoulli(params_.query_cache_hit)
            ? kMySqlHitDemandMs * s
            : rng.lognormal_mean(it.mysql_miss_demand_ms * s, kDemandCv);
    req->mysql_demand = sim::SimTime::from_millis(per_query_ms);
  }
  req->request_bytes = it.request_bytes;
  req->response_bytes = it.response_bytes;
  req->log_bytes = it.log_bytes;
  req->priority = it.priority;
  req->db_writes = std::min(it.db_writes, req->db_queries);
  if (params_.key_space > 0) {
    // Appended after every pre-existing draw so the stream (and therefore
    // every MySQL-mode run) is byte-identical when key_space == 0.
    const auto pos = std::upper_bound(zipf_cdf_.begin(), zipf_cdf_.end(),
                                      rng.uniform01());
    req->key = static_cast<std::uint64_t>(pos - zipf_cdf_.begin());
    if (req->key >= params_.key_space) req->key = params_.key_space - 1;
  }
  return req;
}

double RubbosWorkload::mean_tomcat_demand_ms() const {
  const auto& w = active_weights();
  double total = 0, wsum = 0;
  for (std::size_t i = 0; i < table_.size(); ++i) {
    total += w[i] * table_[i].tomcat_demand_ms;
    wsum += w[i];
  }
  return params_.demand_scale * total / wsum;
}

double RubbosWorkload::mean_apache_demand_ms() const {
  const auto& w = active_weights();
  double total = 0, wsum = 0;
  for (std::size_t i = 0; i < table_.size(); ++i) {
    total += w[i] * table_[i].apache_demand_ms;
    wsum += w[i];
  }
  return params_.demand_scale * total / wsum;
}

double RubbosWorkload::mean_log_bytes() const {
  const auto& w = active_weights();
  double total = 0, wsum = 0;
  for (std::size_t i = 0; i < table_.size(); ++i) {
    total += w[i] * table_[i].log_bytes;
    wsum += w[i];
  }
  return total / wsum;
}

}  // namespace ntier::workload
