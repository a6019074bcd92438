// Unit tests for sim/: clock, event engine ordering/determinism, cost
// model arithmetic.
#include <gtest/gtest.h>

#include <stdexcept>
#include <vector>

#include "sim/env.h"

namespace papm::sim {
namespace {

TEST(Clock, AdvancesMonotonically) {
  Clock c;
  EXPECT_EQ(c.now(), 0);
  c.advance(100);
  EXPECT_EQ(c.now(), 100);
  c.advance(0);
  c.advance(-5);  // negative charges are ignored
  EXPECT_EQ(c.now(), 100);
  c.jump_to(50);  // never moves backwards
  EXPECT_EQ(c.now(), 100);
  c.jump_to(200);
  EXPECT_EQ(c.now(), 200);
}

TEST(Clock, ScopeRestoresTheScopeBeforeIt) {
  Clock c;
  c.advance(10);
  SimTime host = 0;
  SimTime engine = 0;
  {
    const Clock::Scope outer(c, 100, &host);
    c.advance(5);
    EXPECT_EQ(c.now(), 105);
    try {
      const Clock::Scope inner(c, c.now(), &engine);
      c.advance(7);
      EXPECT_EQ(c.now(), 112);
      throw std::runtime_error("cut");
    } catch (const std::runtime_error&) {
    }
    EXPECT_EQ(engine, 7);
    EXPECT_EQ(c.now(), 105) << "the unwind restores the host's scope";
    c.advance(1);
  }
  EXPECT_EQ(host, 6);
  EXPECT_FALSE(c.in_scope());
  EXPECT_EQ(c.now(), 10) << "scoped charges never move event time";
}

TEST(Engine, RunsEventsInTimeOrder) {
  Engine e;
  std::vector<int> order;
  e.schedule_at(30, [&] { order.push_back(3); });
  e.schedule_at(10, [&] { order.push_back(1); });
  e.schedule_at(20, [&] { order.push_back(2); });
  e.run_until_idle();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(e.now(), 30);
}

TEST(Engine, TiesBreakInScheduleOrder) {
  Engine e;
  std::vector<int> order;
  for (int i = 0; i < 10; i++) {
    e.schedule_at(5, [&order, i] { order.push_back(i); });
  }
  e.run_until_idle();
  for (int i = 0; i < 10; i++) EXPECT_EQ(order[i], i);
}

TEST(Engine, EventsCanScheduleEvents) {
  Engine e;
  int fired = 0;
  std::function<void()> chain = [&] {
    fired++;
    if (fired < 5) e.schedule_in(10, chain);
  };
  e.schedule_in(10, chain);
  e.run_until_idle();
  EXPECT_EQ(fired, 5);
  EXPECT_EQ(e.now(), 50);
}

TEST(Engine, RunUntilStopsAtDeadline) {
  Engine e;
  int fired = 0;
  e.schedule_at(10, [&] { fired++; });
  e.schedule_at(100, [&] { fired++; });
  e.run_until(50);
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(e.now(), 50);
  EXPECT_EQ(e.pending(), 1u);
  e.run_until_idle();
  EXPECT_EQ(fired, 2);
}

TEST(Engine, PastScheduleClampsToNow) {
  Engine e;
  e.schedule_at(100, [] {});
  e.run_until_idle();
  SimTime fired_at = -1;
  e.schedule_at(10, [&] { fired_at = e.now(); });  // in the past
  e.run_until_idle();
  EXPECT_EQ(fired_at, 100);
}

TEST(Engine, ResetClearsEverything) {
  Engine e;
  e.schedule_at(10, [] {});
  e.reset();
  EXPECT_EQ(e.pending(), 0u);
  EXPECT_EQ(e.now(), 0);
}

TEST(CostModel, PersistCostCountsLines) {
  CostModel m;
  // 1 KB = 16 lines: the Table 1 persistence row (1.94 us).
  EXPECT_EQ(m.persist_cost(1024), 16 * m.clwb_ns + m.sfence_ns);
  EXPECT_NEAR(static_cast<double>(m.persist_cost(1024)), 1940.0, 60.0);
  // A single byte still flushes a whole line.
  EXPECT_EQ(m.persist_cost(1), m.clwb_ns + m.sfence_ns);
  // Straddling is the caller's problem; 65 bytes = 2 lines.
  EXPECT_EQ(m.persist_cost(65), 2 * m.clwb_ns + m.sfence_ns);
}

TEST(CostModel, Crc32cCalibratedToTable1) {
  CostModel m;
  // Table 1: checksum of a 1 KB value costs 1.77 us.
  EXPECT_NEAR(static_cast<double>(m.crc32c_cost(1024)), 1770.0, 60.0);
}

TEST(CostModel, CopyCalibratedToTable1) {
  CostModel m;
  // Table 1: copying a 1 KB value costs 1.14 us.
  EXPECT_NEAR(static_cast<double>(m.copy_cost(1024)), 1140.0, 40.0);
}

TEST(CostModel, WireCostAt25Gbps) {
  CostModel m;
  // 25 Gbit/s = 0.32 ns/byte; 1500 B frame = 480 ns.
  EXPECT_NEAR(static_cast<double>(m.wire_cost(1500)), 480.0, 1.0);
}

TEST(CostModel, NetScaleAppliesToWire) {
  CostModel m;
  m.net_scale = 0.5;
  EXPECT_EQ(m.wire_cost(1000), m.scaled(static_cast<SimTime>(320)));
}

TEST(CostModel, HomaPresetIsFaster) {
  const CostModel tcp;
  const CostModel homa = CostModel::homa_like();
  EXPECT_LT(homa.client_stack_rx_ns, tcp.client_stack_rx_ns);
  EXPECT_LT(homa.server_stack_rx_ns, tcp.server_stack_rx_ns);
  // Storage-side constants must be untouched: the ablation isolates
  // networking.
  EXPECT_EQ(homa.clwb_ns, tcp.clwb_ns);
  EXPECT_EQ(homa.crc32c_ns_per_byte, tcp.crc32c_ns_per_byte);
}

TEST(Env, SharedClock) {
  Env env;
  env.clock().advance(42);
  EXPECT_EQ(env.now(), 42);
  EXPECT_EQ(env.engine.now(), 42);
}

}  // namespace
}  // namespace papm::sim
