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
  MySqlConfig cfg;
  cfg.max_connections = 2;
  MySqlServer db(s, node, cfg);
  std::vector<SimTime> done;
  for (int i = 0; i < 3; ++i)
    db.execute(SimTime::millis(10), [&] { done.push_back(s.now()); });
  EXPECT_EQ(db.resident(), 3);
  s.run();
  ASSERT_EQ(done.size(), 3u);
  // Two PS-share the single core (finish at 20ms); the third runs alone.
  EXPECT_EQ(done[0].ms(), 20);
  EXPECT_EQ(done[1].ms(), 20);
  EXPECT_EQ(done[2].ms(), 30);
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
