#include "server/mysql_server.h"

#include <gtest/gtest.h>

#include "sim/simulation.h"

namespace ntier::server {
namespace {

using sim::SimTime;
using sim::Simulation;

os::NodeConfig plain_node(int cores = 4) {
  os::NodeConfig nc;
  nc.cores = cores;
  nc.pdflush.enabled = false;
  return nc;
}

TEST(MySqlServer, ExecutesQueryOnCpu) {
  Simulation s;
  os::Node node(s, plain_node());
  MySqlServer db(s, node);
  SimTime done;
  db.execute(SimTime::millis(5), [&] { done = s.now(); });
  s.run();
  EXPECT_EQ(done, SimTime::millis(5));
  EXPECT_EQ(db.queries_served(), 1u);
}

TEST(MySqlServer, ResidentGaugeRisesAndFalls) {
  Simulation s;
  os::Node node(s, plain_node());
  MySqlServer db(s, node);
  metrics::GaugeSeries queue(SimTime::millis(50));
  db.set_queue_series(&queue);
  db.execute(SimTime::millis(5), [] {});
  db.execute(SimTime::millis(5), [] {});
  EXPECT_EQ(db.resident(), 2);
  s.run();
  EXPECT_EQ(db.resident(), 0);
  EXPECT_DOUBLE_EQ(queue.global_max(), 2.0);
}

TEST(MySqlServer, ConnectionCapQueuesExcess) {
  Simulation s;
  os::Node node(s, plain_node(1));
  MySqlServer db(s, node);
  const int cap = kMySqlMaxConnections;
  std::vector<SimTime> done;
  for (int i = 0; i < cap + 1; ++i)
    db.execute(SimTime::millis(10), [&] { done.push_back(s.now()); });
  EXPECT_EQ(db.resident(), cap + 1);
  s.run();
  ASSERT_EQ(done.size(), static_cast<std::size_t>(cap + 1));
  // The first `cap` PS-share the single core and finish together; the one
  // queued beyond the cap starts only then and runs alone.
  EXPECT_EQ(done[0].ms(), 10 * cap);
  EXPECT_EQ(done[cap - 1].ms(), 10 * cap);
  EXPECT_EQ(done[cap].ms(), 10 * cap + 10);
}

TEST(MySqlServer, ManyQueriesAllComplete) {
  Simulation s;
  os::Node node(s, plain_node());
  MySqlServer db(s, node);
  int completed = 0;
  for (int i = 0; i < 200; ++i) {
    s.after(SimTime::micros(100 * i),
            [&] { db.execute(SimTime::micros(500), [&] { ++completed; }); });
  }
  s.run();
  EXPECT_EQ(completed, 200);
  EXPECT_EQ(db.queries_served(), 200u);
  EXPECT_EQ(db.resident(), 0);
}

}  // namespace
}  // namespace ntier::server
