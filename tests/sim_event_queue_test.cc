// Copyright (c) 2026 madnet authors. All rights reserved.

#include "sim/event_queue.h"

#include <limits>
#include <memory>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "util/logging.h"
#include "util/random.h"

namespace madnet::sim {
namespace {

TEST(EventQueueTest, StartsEmpty) {
  EventQueue queue;
  EXPECT_TRUE(queue.Empty());
  EXPECT_EQ(queue.Size(), 0u);
}

TEST(EventQueueTest, PopsInTimeOrder) {
  EventQueue queue;
  std::vector<int> order;
  queue.Push(3.0, [&] { order.push_back(3); });
  queue.Push(1.0, [&] { order.push_back(1); });
  queue.Push(2.0, [&] { order.push_back(2); });
  while (!queue.Empty()) {
    auto [when, cb] = queue.Pop();
    (void)when;
    cb();
  }
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(EventQueueTest, FifoAmongEqualTimes) {
  EventQueue queue;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    queue.Push(5.0, [&order, i] { order.push_back(i); });
  }
  while (!queue.Empty()) queue.Pop().second();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[i], i);
}

TEST(EventQueueTest, NextTimeReportsEarliest) {
  EventQueue queue;
  queue.Push(7.0, [] {});
  queue.Push(2.5, [] {});
  EXPECT_DOUBLE_EQ(queue.NextTime(), 2.5);
}

TEST(EventQueueTest, CancelPendingEvent) {
  EventQueue queue;
  bool ran = false;
  EventId id = queue.Push(1.0, [&] { ran = true; });
  queue.Push(2.0, [] {});
  EXPECT_TRUE(queue.Cancel(id));
  EXPECT_EQ(queue.Size(), 1u);
  EXPECT_DOUBLE_EQ(queue.NextTime(), 2.0);
  queue.Pop().second();
  EXPECT_FALSE(ran);
  EXPECT_TRUE(queue.Empty());
}

TEST(EventQueueTest, CancelAfterRunFails) {
  EventQueue queue;
  EventId id = queue.Push(1.0, [] {});
  queue.Push(2.0, [] {});
  queue.Pop().second();
  EXPECT_FALSE(queue.Cancel(id));
  EXPECT_EQ(queue.Size(), 1u);  // Live count untouched.
}

TEST(EventQueueTest, DoubleCancelFails) {
  EventQueue queue;
  EventId id = queue.Push(1.0, [] {});
  queue.Push(3.0, [] {});
  EXPECT_TRUE(queue.Cancel(id));
  EXPECT_FALSE(queue.Cancel(id));
  EXPECT_EQ(queue.Size(), 1u);
}

TEST(EventQueueTest, CancelInvalidIdFails) {
  EventQueue queue;
  EXPECT_FALSE(queue.Cancel(kInvalidEventId));
  EXPECT_FALSE(queue.Cancel(9999));
}

TEST(EventQueueTest, CancelLastEventEmptiesQueue) {
  EventQueue queue;
  EventId id = queue.Push(1.0, [] {});
  EXPECT_TRUE(queue.Cancel(id));
  EXPECT_TRUE(queue.Empty());
}

TEST(EventQueueTest, ClearDropsEverything) {
  EventQueue queue;
  queue.Push(1.0, [] {});
  queue.Push(2.0, [] {});
  queue.Clear();
  EXPECT_TRUE(queue.Empty());
  // Queue stays usable after Clear.
  queue.Push(3.0, [] {});
  EXPECT_EQ(queue.Size(), 1u);
}

TEST(EventQueueTest, ManyCancellationsInterleaved) {
  EventQueue queue;
  std::vector<EventId> ids;
  std::vector<int> ran;
  for (int i = 0; i < 100; ++i) {
    ids.push_back(queue.Push(static_cast<Time>(i), [&ran, i] {
      ran.push_back(i);
    }));
  }
  // Cancel every odd event.
  for (int i = 1; i < 100; i += 2) EXPECT_TRUE(queue.Cancel(ids[i]));
  EXPECT_EQ(queue.Size(), 50u);
  while (!queue.Empty()) queue.Pop().second();
  ASSERT_EQ(ran.size(), 50u);
  for (size_t j = 0; j < ran.size(); ++j) EXPECT_EQ(ran[j] % 2, 0);
}

TEST(EventQueueRunTest, ItemsPopInTimeThenIdOrder) {
  EventQueue queue;
  std::vector<std::pair<Time, uint32_t>> order;
  const Time when[] = {2.0, 1.0, 2.0, 0.5};
  queue.Push(2.0, [&] { order.push_back({2.0, 99}); });  // id 1
  const EventId first = queue.PushRun(when, 4, [&](uint32_t i) {
    order.push_back({when[i], i});
  });
  EXPECT_EQ(first, 2u);
  EXPECT_EQ(queue.Size(), 5u);
  while (!queue.Empty()) queue.Pop().second();
  // Ties at 2.0 pop by id: the plain event (id 1), then items 0 and 2.
  const std::vector<std::pair<Time, uint32_t>> expected = {
      {0.5, 3}, {1.0, 1}, {2.0, 99}, {2.0, 0}, {2.0, 2}};
  EXPECT_EQ(order, expected);
}

TEST(EventQueueRunTest, EmptyRunTakesNoId) {
  EventQueue queue;
  EXPECT_EQ(queue.PushRun(nullptr, 0, [](uint32_t) {}), kInvalidEventId);
  EXPECT_TRUE(queue.Empty());
  EXPECT_EQ(queue.Push(1.0, [] {}), 1u);
}

TEST(EventQueueRunTest, RunItemsCannotBeCancelled) {
  EventQueue queue;
  const Time when[] = {1.0, 2.0, 3.0};
  int fired = 0;
  const EventId first = queue.PushRun(when, 3, [&](uint32_t) { ++fired; });
  for (EventId id = first; id < first + 3; ++id) {
    EXPECT_FALSE(queue.Cancel(id));
  }
  EXPECT_EQ(queue.Size(), 3u);
  queue.Pop().second();
  EXPECT_FALSE(queue.Cancel(first));  // Ran.
  while (!queue.Empty()) queue.Pop().second();
  EXPECT_EQ(fired, 3);
}

TEST(EventQueueTest, PoppedFiringCanBeRepushed) {
  // A hold model: each pop re-queues the same callback later.
  EventQueue queue;
  int fired = 0;
  queue.Push(0.0, [&] { ++fired; });
  queue.Push(0.375, [&] { fired += 100; });
  std::vector<Time> times;
  for (int i = 0; i < 6; ++i) {
    auto [when, firing] = queue.Pop();
    times.push_back(when);
    firing();
    queue.Push(when + 0.25, std::move(firing));
  }
  EXPECT_EQ(times, (std::vector<Time>{0.0, 0.25, 0.375, 0.5, 0.625, 0.75}));
  EXPECT_EQ(fired, 4 + 200);
  EXPECT_EQ(queue.Size(), 2u);
}

/// One side of the differential test: a queue plus a log of popped
/// (time, id) pairs. With `runs` set, batches go through PushRun;
/// otherwise through one Push per item, in index order.
struct QueueUnderTest {
  explicit QueueUnderTest(bool use_runs) : runs(use_runs) {}

  /// Schedules one plain (cancellable) event; returns its id.
  EventId Plain(Time t) {
    const EventId id = next_id++;
    EXPECT_EQ(queue.Push(t, [this, t, id] { Fire(t, id); }), id);
    return id;
  }

  /// Schedules `times` as one batch; returns the id of item 0.
  EventId Batch(const std::vector<Time>& times) {
    const EventId base = next_id;
    if (!runs) {
      for (Time t : times) Plain(t);
      return base;
    }
    next_id += times.size();
    // The callback reads item times after the caller's vector is gone.
    auto kept = std::make_shared<std::vector<Time>>(times);
    const EventId first = queue.PushRun(
        kept->data(), static_cast<uint32_t>(kept->size()),
        [this, kept, base](uint32_t i) { Fire((*kept)[i], base + i); });
    EXPECT_EQ(first, times.empty() ? kInvalidEventId : base);
    return base;
  }

  /// Logs the firing; some ids schedule a follow-up batch from inside
  /// their callback, as a delivery handler that broadcasts would.
  void Fire(Time t, EventId id) {
    log.push_back({t, id});
    if (id % 5 == 0) {
      std::vector<Time> times;
      for (uint32_t k = 0; k < id % 4; ++k) times.push_back(t + 0.25 * k);
      Batch(times);
    }
  }

  bool runs;
  EventQueue queue;
  EventId next_id = 1;
  std::vector<std::pair<Time, EventId>> log;
};

TEST(EventQueueRunTest, DifferentialAgainstPlainPushes) {
  for (uint64_t seed = 1; seed <= 8; ++seed) {
    Rng rng(seed);
    QueueUnderTest run_side(true);
    QueueUnderTest ref_side(false);
    std::vector<EventId> plain_ids;
    std::vector<EventId> run_ids;
    Time now = 0.0;
    // A delay drawn so that exact ties, epoch crossings (0.5 s) and the
    // ring horizon (64 epochs = 32 s) are all common.
    auto delay = [&rng]() -> Time {
      switch (rng.NextUint64(6)) {
        case 0:
          return 0.0;
        case 1:
          return 0.25 * static_cast<double>(rng.NextUint64(8));
        case 2:
          return rng.Uniform(0.0, 0.002);
        case 3:
          return rng.Uniform(0.0, 5.0);
        case 4:
          return 30.0 + 0.5 * static_cast<double>(rng.NextUint64(40));
        default:
          return rng.Uniform(0.0, 100.0);
      }
    };
    for (int step = 0; step < 4000; ++step) {
      const uint64_t op = rng.NextUint64(100);
      if (op < 25) {
        const Time t = now + delay();
        const EventId id = run_side.Plain(t);
        EXPECT_EQ(ref_side.Plain(t), id);
        plain_ids.push_back(id);
      } else if (op < 45) {
        // Mostly broadcast-sized runs; some large enough that the sort
        // leaves its small-range path (dense crowds).
        const uint32_t n = static_cast<uint32_t>(
            rng.Bernoulli(0.1) ? 17 + rng.NextUint64(300) : rng.NextUint64(12));
        std::vector<Time> times;
        const Time base = now + delay();
        for (uint32_t i = 0; i < n; ++i) {
          times.push_back(rng.Bernoulli(0.3) ? base : base + delay());
        }
        // The run side pushes these as one run; the reference as plain
        // pushes, which stay cancellable there and are never cancelled.
        const EventId first = run_side.Batch(times);
        EXPECT_EQ(ref_side.Batch(times), first);
        for (uint32_t i = 0; i < n; ++i) run_ids.push_back(first + i);
      } else if (op < 55 && !plain_ids.empty()) {
        const EventId id = plain_ids[rng.NextUint64(plain_ids.size())];
        EXPECT_EQ(run_side.queue.Cancel(id), ref_side.queue.Cancel(id));
      } else if (op < 60 && !run_ids.empty()) {
        const EventId id = run_ids[rng.NextUint64(run_ids.size())];
        EXPECT_FALSE(run_side.queue.Cancel(id));
      } else if (op == 60) {
        run_side.queue.Clear();
        ref_side.queue.Clear();
      } else if (!ref_side.queue.Empty()) {
        ASSERT_FALSE(run_side.queue.Empty());
        EXPECT_EQ(run_side.queue.NextTime(), ref_side.queue.NextTime());
        auto [run_when, run_firing] = run_side.queue.Pop();
        auto [ref_when, ref_firing] = ref_side.queue.Pop();
        EXPECT_EQ(run_when, ref_when);
        now = run_when;
        run_firing();
        ref_firing();
      }
      ASSERT_EQ(run_side.queue.Size(), ref_side.queue.Size()) << "step "
                                                              << step;
      ASSERT_EQ(run_side.log, ref_side.log) << "seed " << seed;
    }
    while (!ref_side.queue.Empty()) {
      ASSERT_FALSE(run_side.queue.Empty());
      run_side.queue.Pop().second();
      ref_side.queue.Pop().second();
    }
    EXPECT_TRUE(run_side.queue.Empty());
    EXPECT_EQ(run_side.log, ref_side.log) << "seed " << seed;
    EXPECT_GT(run_side.log.size(), 1000u);
  }
}

// The debug-invariant layer: popping an empty queue and NaN event times are
// programming errors that MADNET_DCHECK turns into aborts (active in debug
// and MADNET_FORCE_DCHECKS builds; compiled out in plain Release, where
// these tests skip).
TEST(EventQueueDeathTest, PopOnEmptyQueueDchecks) {
#if MADNET_DCHECK_ASSERTS
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  EventQueue queue;
  EXPECT_DEATH(queue.Pop(), "MADNET_DCHECK failed");
#else
  GTEST_SKIP() << "MADNET_DCHECK compiled out (NDEBUG build)";
#endif
}

TEST(EventQueueDeathTest, NanEventTimeDchecks) {
#if MADNET_DCHECK_ASSERTS
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  EventQueue queue;
  const Time nan = std::numeric_limits<Time>::quiet_NaN();
  EXPECT_DEATH(queue.Push(nan, [] {}), "MADNET_DCHECK failed");
#else
  GTEST_SKIP() << "MADNET_DCHECK compiled out (NDEBUG build)";
#endif
}

}  // namespace
}  // namespace madnet::sim
