// Copyright (c) 2026 madnet authors. All rights reserved.

#include "sim/simulator.h"

#include <utility>
#include <vector>

#include <gtest/gtest.h>

namespace madnet::sim {
namespace {

TEST(SimulatorTest, ClockStartsAtZero) {
  Simulator sim;
  EXPECT_DOUBLE_EQ(sim.Now(), 0.0);
  EXPECT_EQ(sim.PendingEvents(), 0u);
}

TEST(SimulatorTest, ScheduleAdvancesClockToEventTime) {
  Simulator sim;
  double seen = -1.0;
  sim.Schedule(5.0, [&] { seen = sim.Now(); });
  sim.Run();
  EXPECT_DOUBLE_EQ(seen, 5.0);
  EXPECT_DOUBLE_EQ(sim.Now(), 5.0);
}

TEST(SimulatorTest, NegativeDelayClampsToNow) {
  Simulator sim;
  double inner_time = -1.0;
  sim.Schedule(10.0, [&] {
    sim.Schedule(-1.0, [&] { inner_time = sim.Now(); });
  });
  sim.Run();
  EXPECT_DOUBLE_EQ(inner_time, 10.0);
}

TEST(SimulatorTest, ScheduleAtPastClampsToNow) {
  Simulator sim;
  sim.Schedule(7.0, [] {});
  sim.Run();
  double when = -1.0;
  sim.ScheduleAt(3.0, [&] { when = sim.Now(); });
  sim.Run();
  EXPECT_DOUBLE_EQ(when, 7.0);
}

TEST(SimulatorTest, NestedSchedulingRunsInOrder) {
  Simulator sim;
  std::vector<int> order;
  sim.Schedule(1.0, [&] {
    order.push_back(1);
    sim.Schedule(1.0, [&] { order.push_back(3); });
  });
  sim.Schedule(1.5, [&] { order.push_back(2); });
  sim.Run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(SimulatorTest, RunItemsAreEventsInTimeThenIdOrder) {
  // A run's items interleave with plain events by (time, id), each one
  // counted as an executed event; past times clamp to Now().
  Simulator sim;
  std::vector<std::pair<double, int>> seen;
  sim.Schedule(4.0, [&] {
    seen.push_back({sim.Now(), -1});
    std::vector<Time> when = {6.0, 1.0, 5.0};  // 1.0 is in the past.
    sim.ScheduleRunAt(when, [&](uint32_t i) {
      seen.push_back({sim.Now(), static_cast<int>(i)});
    });
    EXPECT_EQ(when[1], 4.0);
  });
  sim.ScheduleAt(5.0, [&] { seen.push_back({sim.Now(), -2}); });
  EXPECT_EQ(sim.Run(), 5u);
  EXPECT_EQ(sim.ExecutedEvents(), 5u);
  const std::vector<std::pair<double, int>> expected = {
      {4.0, -1}, {4.0, 1}, {5.0, -2}, {5.0, 2}, {6.0, 0}};
  EXPECT_EQ(seen, expected);
}

TEST(SimulatorTest, RunUntilStopsAndAdvancesClock) {
  Simulator sim;
  int ran = 0;
  for (int i = 1; i <= 10; ++i) {
    sim.Schedule(static_cast<Time>(i), [&] { ++ran; });
  }
  const uint64_t executed = sim.RunUntil(5.0);
  EXPECT_EQ(executed, 5u);
  EXPECT_EQ(ran, 5);
  EXPECT_DOUBLE_EQ(sim.Now(), 5.0);  // Horizon reached even without events.
  EXPECT_EQ(sim.PendingEvents(), 5u);
  sim.RunUntil(100.0);
  EXPECT_EQ(ran, 10);
  EXPECT_DOUBLE_EQ(sim.Now(), 100.0);
}

TEST(SimulatorTest, EventAtExactHorizonRuns) {
  Simulator sim;
  bool ran = false;
  sim.Schedule(5.0, [&] { ran = true; });
  sim.RunUntil(5.0);
  EXPECT_TRUE(ran);
}

TEST(SimulatorTest, StepExecutesSingleEvent) {
  Simulator sim;
  int ran = 0;
  sim.Schedule(1.0, [&] { ++ran; });
  sim.Schedule(2.0, [&] { ++ran; });
  EXPECT_TRUE(sim.Step());
  EXPECT_EQ(ran, 1);
  EXPECT_TRUE(sim.Step());
  EXPECT_EQ(ran, 2);
  EXPECT_FALSE(sim.Step());
}

TEST(SimulatorTest, CancelPreventsExecution) {
  Simulator sim;
  bool ran = false;
  EventId id = sim.Schedule(1.0, [&] { ran = true; });
  EXPECT_TRUE(sim.Cancel(id));
  sim.Run();
  EXPECT_FALSE(ran);
}

TEST(SimulatorTest, ExecutedEventsCounts) {
  Simulator sim;
  for (int i = 0; i < 7; ++i) sim.Schedule(1.0, [] {});
  sim.Run();
  EXPECT_EQ(sim.ExecutedEvents(), 7u);
}

TEST(SimulatorTest, ResetClearsEverything) {
  Simulator sim;
  sim.Schedule(1.0, [] {});
  sim.Schedule(2.0, [] {});
  sim.Step();
  sim.Reset();
  EXPECT_DOUBLE_EQ(sim.Now(), 0.0);
  EXPECT_EQ(sim.PendingEvents(), 0u);
  EXPECT_EQ(sim.ExecutedEvents(), 0u);
}

TEST(SimulatorTest, DeterministicReplay) {
  // Two simulators given the same workload execute identically.
  auto run = [] {
    Simulator sim;
    std::vector<double> trace;
    for (int i = 0; i < 50; ++i) {
      sim.Schedule(static_cast<Time>((i * 37) % 11) + 0.25 * i, [&trace, &sim] {
        trace.push_back(sim.Now());
      });
    }
    sim.Run();
    return trace;
  };
  EXPECT_EQ(run(), run());
}

}  // namespace
}  // namespace madnet::sim
