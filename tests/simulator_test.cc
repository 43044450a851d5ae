#include "sim/simulator.h"

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "obs/metrics.h"
#include "sim/event_queue.h"

namespace turtle::sim {
namespace {

TEST(EventQueue, OrdersByTime) {
  EventQueue q;
  std::vector<int> fired;
  q.push(SimTime::seconds(2), [&] { fired.push_back(2); });
  q.push(SimTime::seconds(1), [&] { fired.push_back(1); });
  q.push(SimTime::seconds(3), [&] { fired.push_back(3); });
  while (!q.empty()) q.pop()();
  EXPECT_EQ(fired, (std::vector<int>{1, 2, 3}));
}

TEST(EventQueue, FifoAtEqualTimes) {
  EventQueue q;
  std::vector<int> fired;
  for (int i = 0; i < 10; ++i) {
    q.push(SimTime::seconds(1), [&fired, i] { fired.push_back(i); });
  }
  while (!q.empty()) q.pop()();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(fired[static_cast<std::size_t>(i)], i);
}

TEST(EventQueue, NextTimeAndSize) {
  EventQueue q;
  EXPECT_TRUE(q.empty());
  q.push(SimTime::seconds(5), [] {});
  q.push(SimTime::seconds(2), [] {});
  EXPECT_EQ(q.size(), 2u);
  EXPECT_EQ(q.next_time(), SimTime::seconds(2));
}

// Interleaved push/pop exercises the callback slab's free list: popped
// slots are recycled while FIFO stability at equal times must still hold
// (seq numbers keep ordering even when slots are reused out of order).
TEST(EventQueue, FifoSurvivesSlotRecycling) {
  EventQueue q;
  std::vector<int> fired;
  int next = 0;
  for (int wave = 0; wave < 20; ++wave) {
    for (int i = 0; i < 7; ++i) {
      const int id = next++;
      q.push(SimTime::seconds(100), [&fired, id] { fired.push_back(id); });
    }
    // Drain a prefix so free slots interleave with live ones.
    for (int i = 0; i < 3; ++i) q.pop()();
  }
  while (!q.empty()) q.pop()();
  ASSERT_EQ(fired.size(), static_cast<std::size_t>(next));
  for (int i = 0; i < next; ++i) EXPECT_EQ(fired[static_cast<std::size_t>(i)], i);
}

TEST(EventQueue, MoveOnlyCallback) {
  EventQueue q;
  auto value = std::make_unique<int>(41);
  int seen = 0;
  q.push(SimTime::seconds(1), [v = std::move(value), &seen] { seen = *v + 1; });
  q.pop()();
  EXPECT_EQ(seen, 42);
}

#if TURTLE_DCHECK_ENABLED
TEST(EventQueueDeathTest, PopOnEmptyTripsDcheck) {
  EXPECT_DEATH(
      {
        EventQueue q;
        (void)q.pop();
      },
      "pop\\(\\) on an empty EventQueue");
}

TEST(EventQueueDeathTest, NextTimeOnEmptyTripsDcheck) {
  EXPECT_DEATH(
      {
        EventQueue q;
        (void)q.next_time();
      },
      "next_time\\(\\) on an empty EventQueue");
}
#endif

TEST(Simulator, ClockAdvancesToEventTime) {
  Simulator sim;
  SimTime seen;
  sim.schedule_at(SimTime::seconds(7), [&] { seen = sim.now(); });
  sim.run();
  EXPECT_EQ(seen, SimTime::seconds(7));
  EXPECT_EQ(sim.now(), SimTime::seconds(7));
}

TEST(Simulator, ScheduleAfterIsRelative) {
  Simulator sim;
  std::vector<SimTime> at;
  sim.schedule_at(SimTime::seconds(10), [&] {
    sim.schedule_after(SimTime::seconds(5), [&] { at.push_back(sim.now()); });
  });
  sim.run();
  ASSERT_EQ(at.size(), 1u);
  EXPECT_EQ(at[0], SimTime::seconds(15));
}

// Scheduling in the simulated past is a DCHECK when DCHECKs are armed
// (debug and sanitizer builds) and clamps to now() otherwise.
#if TURTLE_DCHECK_ENABLED
TEST(SimulatorDeathTest, PastSchedulingTripsDcheck) {
  EXPECT_DEATH(
      {
        Simulator sim;
        sim.schedule_at(SimTime::seconds(10), [&] {
          sim.schedule_at(SimTime::seconds(1), [] {});
        });
        sim.run();
      },
      "schedule_at in the simulated past");
}

TEST(SimulatorDeathTest, NegativeDelayTripsDcheck) {
  EXPECT_DEATH(
      {
        Simulator sim;
        sim.schedule_after(SimTime::seconds(-5), [] {});
      },
      "negative delay");
}
#else
TEST(Simulator, PastSchedulingClampsToNow) {
  Simulator sim;
  bool fired = false;
  sim.schedule_at(SimTime::seconds(10), [&] {
    sim.schedule_at(SimTime::seconds(1), [&] {
      fired = true;
      EXPECT_EQ(sim.now(), SimTime::seconds(10));
    });
  });
  sim.run();
  EXPECT_TRUE(fired);
}

TEST(Simulator, NegativeDelayClamps) {
  Simulator sim;
  bool fired = false;
  sim.schedule_after(SimTime::seconds(-5), [&] { fired = true; });
  sim.run();
  EXPECT_TRUE(fired);
  EXPECT_EQ(sim.now(), SimTime{});
}
#endif

TEST(Simulator, RunUntilStopsAtBoundary) {
  Simulator sim;
  int fired = 0;
  sim.schedule_at(SimTime::seconds(1), [&] { ++fired; });
  sim.schedule_at(SimTime::seconds(2), [&] { ++fired; });
  sim.schedule_at(SimTime::seconds(3), [&] { ++fired; });
  sim.run_until(SimTime::seconds(2));
  EXPECT_EQ(fired, 2);
  EXPECT_EQ(sim.now(), SimTime::seconds(2));
  EXPECT_EQ(sim.pending_events(), 1u);
  sim.run();
  EXPECT_EQ(fired, 3);
}

TEST(Simulator, RunUntilAdvancesClockWhenIdle) {
  Simulator sim;
  sim.run_until(SimTime::minutes(5));
  EXPECT_EQ(sim.now(), SimTime::minutes(5));
}

TEST(Simulator, StepProcessesOneEvent) {
  Simulator sim;
  int fired = 0;
  sim.schedule_at(SimTime::seconds(1), [&] { ++fired; });
  sim.schedule_at(SimTime::seconds(2), [&] { ++fired; });
  EXPECT_TRUE(sim.step());
  EXPECT_EQ(fired, 1);
  EXPECT_TRUE(sim.step());
  EXPECT_FALSE(sim.step());
  EXPECT_EQ(sim.events_processed(), 2u);
}

TEST(Simulator, RegistryBackedCountersMatchShims) {
  obs::Registry registry;
  {
    Simulator sim{&registry};
    for (int i = 0; i < 5; ++i) {
      sim.schedule_at(SimTime::seconds(i), [] {});
    }
    sim.schedule_at(SimTime::seconds(0), [] {});  // same timestamp as event 0
    sim.run();
    // The member shim and the registry counter are the same cell.
    EXPECT_EQ(sim.events_processed(), 6u);
    EXPECT_EQ(registry.counter("sim.events_processed").value(), 6u);
    EXPECT_EQ(registry.counter("sim.event_times").value(), 5u);  // distinct timestamps
  }
  // Destruction flushed the queue high-water gauge: all 6 events were
  // enqueued before any ran.
  EXPECT_EQ(registry.gauge("sim.queue_high_water").value(), 6);
}

TEST(Simulator, WithoutRegistryFallbackCountersStillWork) {
  Simulator sim;
  sim.schedule_at(SimTime::seconds(1), [] {});
  sim.run();
  EXPECT_EQ(sim.events_processed(), 1u);
}

TEST(Simulator, EventChainTerminates) {
  Simulator sim;
  int count = 0;
  std::function<void()> chain = [&] {
    if (++count < 1000) sim.schedule_after(SimTime::millis(1), chain);
  };
  sim.schedule_at(SimTime{}, chain);
  sim.run();
  EXPECT_EQ(count, 1000);
  EXPECT_EQ(sim.now(), SimTime::millis(999));
}

TEST(Simulator, InterleavedSourcesStayOrdered) {
  Simulator sim;
  std::vector<SimTime> order;
  for (int i = 0; i < 50; ++i) {
    sim.schedule_at(SimTime::millis(i * 7 % 97), [&] { order.push_back(sim.now()); });
  }
  sim.run();
  for (std::size_t i = 1; i < order.size(); ++i) ASSERT_GE(order[i], order[i - 1]);
}

}  // namespace
}  // namespace turtle::sim
