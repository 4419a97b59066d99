// Copyright (c) 2026 madnet authors. All rights reserved.
//
// ThreadPool / ParallelFor contract tests: FIFO draining, exception
// propagation through Wait(), nested-submit safety, inline execution at
// jobs=1, exactly-once index coverage, and the nested-region contract (a
// ParallelFor inside a worker shares the outermost call's workers).

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <mutex>
#include <numeric>
#include <set>
#include <stdexcept>
#include <thread>
#include <vector>

#include "exec/parallel_for.h"
#include "exec/thread_pool.h"

namespace madnet::exec {
namespace {

TEST(ThreadPoolTest, SingleWorkerRunsTasksInSubmissionOrder) {
  ThreadPool pool(1);
  std::vector<int> order;
  std::mutex mutex;
  for (int i = 0; i < 100; ++i) {
    pool.Submit([i, &order, &mutex] {
      std::lock_guard<std::mutex> lock(mutex);
      order.push_back(i);
    });
  }
  pool.Wait();
  std::vector<int> expected(100);
  std::iota(expected.begin(), expected.end(), 0);
  EXPECT_EQ(order, expected);
}

TEST(ThreadPoolTest, ThreadCountIsClampedToAtLeastOne) {
  ThreadPool pool(-3);
  EXPECT_EQ(pool.thread_count(), 1);
  std::atomic<int> ran{0};
  pool.Submit([&ran] { ++ran; });
  pool.Wait();
  EXPECT_EQ(ran.load(), 1);
}

TEST(ThreadPoolTest, WaitRethrowsFirstTaskException) {
  ThreadPool pool(2);
  pool.Submit([] { throw std::runtime_error("boom"); });
  EXPECT_THROW(pool.Wait(), std::runtime_error);
  // The pool stays usable after the exception is consumed.
  std::atomic<int> ran{0};
  pool.Submit([&ran] { ++ran; });
  pool.Wait();
  EXPECT_EQ(ran.load(), 1);
}

TEST(ThreadPoolTest, NestedSubmitsCompleteBeforeWaitReturns) {
  ThreadPool pool(3);
  std::atomic<int> done{0};
  for (int i = 0; i < 10; ++i) {
    pool.Submit([&pool, &done] {
      // A task fanning out follow-up work from inside the pool must not
      // deadlock, and Wait() must cover the children too.
      pool.Submit([&pool, &done] {
        pool.Submit([&done] { ++done; });
        ++done;
      });
      ++done;
    });
  }
  pool.Wait();
  EXPECT_EQ(done.load(), 30);
}

TEST(ThreadPoolTest, WaitIsReusableAcrossBatches) {
  ThreadPool pool(2);
  std::atomic<int> count{0};
  for (int batch = 0; batch < 3; ++batch) {
    for (int i = 0; i < 20; ++i) pool.Submit([&count] { ++count; });
    pool.Wait();
    EXPECT_EQ(count.load(), (batch + 1) * 20);
  }
}

TEST(ParallelForTest, CoversEveryIndexExactlyOnce) {
  const size_t n = 1000;
  std::vector<std::atomic<int>> hits(n);
  ParallelFor(4, n, [&hits](size_t i) { ++hits[i]; });
  for (size_t i = 0; i < n; ++i) EXPECT_EQ(hits[i].load(), 1) << i;
}

TEST(ParallelForTest, JobsOneRunsInlineInIndexOrder) {
  const auto caller = std::this_thread::get_id();
  std::vector<size_t> order;
  ParallelFor(1, 50, [&](size_t i) {
    EXPECT_EQ(std::this_thread::get_id(), caller);
    order.push_back(i);
  });
  ASSERT_EQ(order.size(), 50u);
  for (size_t i = 0; i < order.size(); ++i) EXPECT_EQ(order[i], i);
}

TEST(ParallelForTest, PropagatesExceptionFromWorker) {
  EXPECT_THROW(
      ParallelFor(4, 100,
                  [](size_t i) {
                    if (i == 7) throw std::runtime_error("bad index");
                  }),
      std::runtime_error);
}

TEST(ParallelForTest, NestedCoversEveryPairExactlyOnce) {
  const size_t outer = 12;
  const size_t inner = 40;
  std::vector<std::atomic<int>> hits(outer * inner);
  ParallelFor(4, outer, [&](size_t o) {
    ParallelFor(3, inner, [&](size_t i) { ++hits[o * inner + i]; });
  });
  for (size_t k = 0; k < hits.size(); ++k) {
    EXPECT_EQ(hits[k].load(), 1) << "outer " << k / inner << " inner "
                                 << k % inner;
  }
}

TEST(ParallelForTest, NestedCallsAddNoThreadsBeyondOuterJobs) {
  const int jobs = 3;
  std::mutex mutex;
  std::set<std::thread::id> seen;
  auto record = [&] {
    std::lock_guard<std::mutex> lock(mutex);
    seen.insert(std::this_thread::get_id());
  };
  // Inner calls ask for far more workers than the outer region has; they
  // must be served by the outer region's workers only.
  ParallelFor(jobs, 8, [&](size_t) {
    record();
    ParallelFor(16, 8, [&](size_t) {
      record();
      ParallelFor(16, 4, [&](size_t) { record(); });
    });
  });
  EXPECT_LE(seen.size(), static_cast<size_t>(jobs));
}

TEST(ParallelForTest, NestedRangeIsServedByIdleOuterWorkers) {
  // One outer index leaves a worker idle. The inner call asks for jobs = 1,
  // yet its two indices must run at once: each waits for the other to
  // arrive, which only the idle worker can make happen.
  std::mutex mutex;
  std::condition_variable arrived;
  int count = 0;
  bool met = true;
  ParallelFor(2, 1, [&](size_t) {
    ParallelFor(1, 2, [&](size_t) {
      std::unique_lock<std::mutex> lock(mutex);
      ++count;
      arrived.notify_all();
      if (!arrived.wait_for(lock, std::chrono::seconds(30),
                            [&] { return count == 2; })) {
        met = false;
      }
    });
  });
  EXPECT_TRUE(met);
  EXPECT_EQ(count, 2);
}

TEST(ParallelForTest, NestedUnderTopLevelJobsOneStaysInline) {
  const auto caller = std::this_thread::get_id();
  std::vector<size_t> order;
  ParallelFor(1, 3, [&](size_t o) {
    ParallelFor(4, 5, [&](size_t i) {
      EXPECT_EQ(std::this_thread::get_id(), caller);
      order.push_back(o * 5 + i);
    });
  });
  ASSERT_EQ(order.size(), 15u);
  for (size_t k = 0; k < order.size(); ++k) EXPECT_EQ(order[k], k);
}

TEST(ParallelForTest, InnerExceptionReachesOutermostCaller) {
  // Outer index 2's inner loop throws at its first index. Every other
  // inner index takes a millisecond, so running them all would take
  // seconds; the throw must abandon the ones not yet claimed.
  const size_t inner = 10000;
  std::vector<std::atomic<bool>> ran(inner);
  std::atomic<size_t> ran_count{0};
  EXPECT_THROW(
      ParallelFor(4, 4,
                  [&](size_t o) {
                    ParallelFor(4, o == 2 ? inner : 3, [&](size_t i) {
                      if (o != 2) return;
                      if (i == 0) throw std::runtime_error("inner");
                      ran[i] = true;
                      ++ran_count;
                      std::this_thread::sleep_for(std::chrono::milliseconds(1));
                    });
                  }),
      std::runtime_error);
  EXPECT_LT(ran_count.load(), inner - 1);
  EXPECT_FALSE(ran[inner - 1].load());
}

TEST(ParallelForTest, InnerExceptionUnderJobsOneStopsAtTheThrowingIndex) {
  std::vector<size_t> order;
  EXPECT_THROW(ParallelFor(1, 2,
                           [&](size_t) {
                             ParallelFor(4, 10, [&](size_t i) {
                               if (i == 3) throw std::runtime_error("inner");
                               order.push_back(i);
                             });
                           }),
               std::runtime_error);
  EXPECT_EQ(order, (std::vector<size_t>{0, 1, 2}));
}

TEST(ParallelForTest, ZeroIterationsIsANoOp) {
  bool called = false;
  ParallelFor(8, 0, [&called](size_t) { called = true; });
  EXPECT_FALSE(called);
}

TEST(ParallelForTest, ResolveJobsMapsAutoToHardware) {
  EXPECT_EQ(ResolveJobs(3), 3);
  EXPECT_EQ(ResolveJobs(1), 1);
  EXPECT_EQ(ResolveJobs(0), ThreadPool::HardwareConcurrency());
  EXPECT_EQ(ResolveJobs(-1), ThreadPool::HardwareConcurrency());
  EXPECT_GE(ThreadPool::HardwareConcurrency(), 1);
}

}  // namespace
}  // namespace madnet::exec
