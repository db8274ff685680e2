// Event queue ordering/cancellation and simulator clock semantics.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <vector>

#include "sim/event_queue.hpp"
#include "sim/periodic.hpp"
#include "sim/simulator.hpp"
#include "sim/timing_wheel.hpp"

namespace gs::sim {
namespace {

TEST(EventQueue, RunsInTimeOrder) {
  EventQueue q;
  std::vector<int> order;
  q.schedule(3.0, [&] { order.push_back(3); });
  q.schedule(1.0, [&] { order.push_back(1); });
  q.schedule(2.0, [&] { order.push_back(2); });
  while (!q.empty()) q.pop_and_run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(EventQueue, TiesFireInInsertionOrder) {
  EventQueue q;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    q.schedule(5.0, [&order, i] { order.push_back(i); });
  }
  while (!q.empty()) q.pop_and_run();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[static_cast<std::size_t>(i)], i);
}

TEST(EventQueue, NextTimeReportsEarliest) {
  EventQueue q;
  q.schedule(7.0, [] {});
  q.schedule(4.0, [] {});
  EXPECT_DOUBLE_EQ(q.next_time(), 4.0);
}

TEST(EventQueue, CancelPreventsExecution) {
  EventQueue q;
  bool ran = false;
  const EventId id = q.schedule(1.0, [&] { ran = true; });
  EXPECT_TRUE(q.cancel(id));
  EXPECT_TRUE(q.empty());
  EXPECT_FALSE(ran);
}

TEST(EventQueue, CancelTwiceFails) {
  EventQueue q;
  const EventId id = q.schedule(1.0, [] {});
  EXPECT_TRUE(q.cancel(id));
  EXPECT_FALSE(q.cancel(id));
}

TEST(EventQueue, CancelAfterRunFails) {
  EventQueue q;
  const EventId id = q.schedule(1.0, [] {});
  q.pop_and_run();
  EXPECT_FALSE(q.cancel(id));
}

TEST(EventQueue, CancelBogusIdFails) {
  EventQueue q;
  EXPECT_FALSE(q.cancel(0));
  EXPECT_FALSE(q.cancel(999));
}

TEST(EventQueue, CancelMiddleKeepsOthers) {
  EventQueue q;
  std::vector<int> order;
  q.schedule(1.0, [&] { order.push_back(1); });
  const EventId id = q.schedule(2.0, [&] { order.push_back(2); });
  q.schedule(3.0, [&] { order.push_back(3); });
  q.cancel(id);
  EXPECT_EQ(q.size(), 2u);
  while (!q.empty()) q.pop_and_run();
  EXPECT_EQ(order, (std::vector<int>{1, 3}));
}

TEST(EventQueue, EventsMayScheduleEvents) {
  EventQueue q;
  std::vector<int> order;
  q.schedule(1.0, [&] {
    order.push_back(1);
    q.schedule(2.0, [&] { order.push_back(2); });
  });
  while (!q.empty()) q.pop_and_run();
  EXPECT_EQ(order, (std::vector<int>{1, 2}));
}

TEST(EventQueue, ClosureCapturesAreReleasedWhenTheEventLeaves) {
  // Closures live in the queue's slab, not in the entries: a capture must
  // still be released once its event is popped, dropped as cancelled, or
  // cleared.
  EventQueue q;
  const auto token = std::make_shared<int>(0);
  q.schedule(1.0, [token] { ++*token; });
  EXPECT_EQ(token.use_count(), 2);
  q.pop_and_run();
  EXPECT_EQ(*token, 1);
  EXPECT_EQ(token.use_count(), 1) << "released after its pop";

  const EventId id = q.schedule(2.0, [token] { ++*token; });
  q.schedule(3.0, [] {});
  EXPECT_TRUE(q.cancel(id));
  q.pop_and_run();  // drops the cancelled head, runs the t = 3 event
  EXPECT_EQ(*token, 1);
  EXPECT_EQ(token.use_count(), 1) << "released when the cancelled entry is skipped";

  q.schedule(4.0, [token] {});
  q.schedule(5.0, [token] {});
  EXPECT_EQ(token.use_count(), 3);
  q.clear();
  EXPECT_EQ(token.use_count(), 1) << "released by clear()";
}

TEST(EventQueue, ClosureMayScheduleClosuresFromItsOwnAction) {
  // The running action has already left its slab slot, so the closures it
  // schedules may reuse that slot; all of them still run, in order.
  EventQueue q;
  std::vector<int> order;
  q.schedule(1.0, [&] {
    order.push_back(1);
    q.schedule(1.0, [&] {
      order.push_back(2);
      q.schedule(2.0, [&] { order.push_back(3); });
    });
  });
  while (!q.empty()) q.pop_and_run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(TimingWheel, RetainedBytesFollowLiveEntriesNotSlotHighWater) {
  // A rolling burst walks the cursor over 2000 buckets — every near slot
  // many times over, and through the coarse wheel: each step schedules 500
  // entries three buckets ahead plus 20 entries 300 buckets ahead, then
  // drains one bucket.  Only a few thousand entries are ever live at once,
  // so retained storage must stay within a small multiple of that peak.  A
  // wheel whose drained slots keep their capacity retains every near and
  // coarse slot's high-water mark instead (tens of times the peak).
  TimingWheel wheel(1.0);
  EventId id = 0;
  std::size_t peak_live = 0;
  std::size_t popped = 0;
  for (int step = 0; step < 2000; ++step) {
    const double now = static_cast<double>(step);
    for (int i = 0; i < 500; ++i) {
      wheel.push({now + 3.0 + i / 500.0, ++id, nullptr, 0, 0});
    }
    for (int i = 0; i < 20; ++i) {
      wheel.push({now + 300.0 + i / 20.0, ++id, nullptr, 0, 0});
    }
    peak_live = std::max(peak_live, wheel.size());
    Time last = -1.0;
    while (!wheel.empty() && wheel.top().at < now + 1.0) {
      const QueueEntry e = wheel.pop();
      ASSERT_GE(e.at, last);
      last = e.at;
      ++popped;
    }
  }
  EXPECT_GT(popped, 900000u);
  const std::size_t peak_bytes = peak_live * sizeof(QueueEntry);
  EXPECT_LE(wheel.memory_bytes(), 4 * peak_bytes)
      << "retained " << wheel.memory_bytes() << " B for at most " << peak_live
      << " live entries";
  // Draining everything keeps the storage on the spare list, not in slots:
  // the total does not grow past the live-driven figure.
  const std::size_t before = wheel.memory_bytes();
  while (!wheel.empty()) (void)wheel.pop();
  EXPECT_LE(wheel.memory_bytes(), before);
}

TEST(Simulator, ClockAdvances) {
  Simulator sim;
  EXPECT_DOUBLE_EQ(sim.now(), 0.0);
  double seen = -1.0;
  sim.at(2.5, [&] { seen = sim.now(); });
  sim.run_until(10.0);
  EXPECT_DOUBLE_EQ(seen, 2.5);
  EXPECT_DOUBLE_EQ(sim.now(), 10.0);
}

TEST(Simulator, NegativeStartTime) {
  Simulator sim(-45.0);
  EXPECT_DOUBLE_EQ(sim.now(), -45.0);
  std::vector<double> times;
  sim.after(5.0, [&] { times.push_back(sim.now()); });
  sim.at(-10.0, [&] { times.push_back(sim.now()); });
  sim.run_until(0.0);
  EXPECT_EQ(times, (std::vector<double>{-40.0, -10.0}));
}

TEST(Simulator, RunUntilStopsAtHorizon) {
  Simulator sim;
  int ran = 0;
  sim.at(1.0, [&] { ++ran; });
  sim.at(5.0, [&] { ++ran; });
  EXPECT_EQ(sim.run_until(3.0), 1u);
  EXPECT_EQ(ran, 1);
  EXPECT_TRUE(sim.pending());
  EXPECT_EQ(sim.run_until(10.0), 1u);
  EXPECT_EQ(ran, 2);
}

TEST(Simulator, EventExactlyAtHorizonRuns) {
  Simulator sim;
  bool ran = false;
  sim.at(3.0, [&] { ran = true; });
  sim.run_until(3.0);
  EXPECT_TRUE(ran);
}

TEST(Simulator, StopInterruptsRun) {
  Simulator sim;
  int ran = 0;
  sim.at(1.0, [&] {
    ++ran;
    sim.stop();
  });
  sim.at(2.0, [&] { ++ran; });
  sim.run_all();
  EXPECT_EQ(ran, 1);
  EXPECT_TRUE(sim.pending());
}

TEST(Simulator, RunAllDrains) {
  Simulator sim;
  int ran = 0;
  for (int i = 1; i <= 5; ++i) {
    sim.at(i, [&] { ++ran; });
  }
  EXPECT_EQ(sim.run_all(), 5u);
  EXPECT_EQ(ran, 5);
  EXPECT_FALSE(sim.pending());
}

TEST(Periodic, FiresAtFixedInterval) {
  Simulator sim;
  std::vector<double> fire_times;
  PeriodicTask task(sim, 1.0, 0.5, [&](double t) { fire_times.push_back(t); });
  sim.run_until(3.0);
  ASSERT_EQ(fire_times.size(), 5u);
  EXPECT_DOUBLE_EQ(fire_times[0], 1.0);
  EXPECT_DOUBLE_EQ(fire_times[4], 3.0);
}

TEST(Periodic, CancelStopsFiring) {
  Simulator sim;
  int fired = 0;
  PeriodicTask task(sim, 1.0, 1.0, [&](double) { ++fired; });
  sim.run_until(2.5);
  EXPECT_EQ(fired, 2);
  task.cancel();
  EXPECT_FALSE(task.active());
  sim.run_until(10.0);
  EXPECT_EQ(fired, 2);
}

TEST(Periodic, CancelFromWithinAction) {
  Simulator sim;
  int fired = 0;
  PeriodicTask* handle = nullptr;
  PeriodicTask task(sim, 1.0, 1.0, [&](double) {
    if (++fired == 3) handle->cancel();
  });
  handle = &task;
  sim.run_until(100.0);
  EXPECT_EQ(fired, 3);
}

TEST(Periodic, DestructionCancels) {
  Simulator sim;
  int fired = 0;
  {
    PeriodicTask task(sim, 1.0, 1.0, [&](double) { ++fired; });
    sim.run_until(1.5);
  }
  sim.run_until(10.0);
  EXPECT_EQ(fired, 1);
}

TEST(Periodic, TwoTasksInterleave) {
  Simulator sim;
  std::vector<int> order;
  PeriodicTask a(sim, 0.0, 1.0, [&](double) { order.push_back(1); });
  PeriodicTask b(sim, 0.5, 1.0, [&](double) { order.push_back(2); });
  sim.run_until(2.2);
  EXPECT_EQ(order, (std::vector<int>{1, 2, 1, 2, 1}));
}

}  // namespace
}  // namespace gs::sim
