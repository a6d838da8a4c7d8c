// Work-stealing pool semantics: every submitted task runs exactly once,
// nested groups drain without deadlock (wait() helps), exceptions surface at
// the join, a 1-thread pool still makes progress, and workers of concurrent
// pools get distinct trace tids. Runs under TSan in CI.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <mutex>
#include <stdexcept>
#include <thread>
#include <vector>

#include "obs/obs.hpp"
#include "support/thread_pool.hpp"

namespace ad {
namespace {

TEST(ThreadPool, EveryTaskRunsExactlyOnce) {
  support::ThreadPool pool(4);
  support::TaskGroup group(pool);
  std::atomic<int> runs{0};
  constexpr int kTasks = 500;
  for (int i = 0; i < kTasks; ++i) {
    group.run([&runs] { runs.fetch_add(1, std::memory_order_relaxed); });
  }
  group.wait();
  EXPECT_EQ(kTasks, runs.load());
}

TEST(ThreadPool, NestedGroupsDrainWithoutDeadlock) {
  support::ThreadPool pool(2);
  support::TaskGroup outer(pool);
  std::atomic<int> runs{0};
  for (int i = 0; i < 8; ++i) {
    outer.run([&pool, &runs] {
      // A per-code task fanning out per-array subtasks onto the same pool:
      // the inner wait() must help-execute rather than block a worker.
      support::TaskGroup inner(pool);
      for (int j = 0; j < 8; ++j) {
        inner.run([&runs] { runs.fetch_add(1, std::memory_order_relaxed); });
      }
      inner.wait();
    });
  }
  outer.wait();
  EXPECT_EQ(64, runs.load());
}

TEST(ThreadPool, SingleThreadPoolMakesProgress) {
  support::ThreadPool pool(1);
  support::TaskGroup outer(pool);
  std::atomic<int> runs{0};
  outer.run([&pool, &runs] {
    support::TaskGroup inner(pool);
    for (int j = 0; j < 16; ++j) {
      inner.run([&runs] { runs.fetch_add(1, std::memory_order_relaxed); });
    }
    inner.wait();
  });
  outer.wait();
  EXPECT_EQ(16, runs.load());
}

TEST(ThreadPool, FirstExceptionRethrownAtJoin) {
  support::ThreadPool pool(2);
  support::TaskGroup group(pool);
  std::atomic<int> survivors{0};
  for (int i = 0; i < 10; ++i) {
    group.run([i, &survivors] {
      if (i == 3) throw std::runtime_error("task failed");
      survivors.fetch_add(1, std::memory_order_relaxed);
    });
  }
  EXPECT_THROW(group.wait(), std::runtime_error);
  EXPECT_EQ(9, survivors.load());

  // The pool stays usable after a failed group.
  support::TaskGroup again(pool);
  std::atomic<bool> ran{false};
  again.run([&ran] { ran.store(true, std::memory_order_relaxed); });
  again.wait();
  EXPECT_TRUE(ran.load());
}

TEST(ThreadPool, RepeatedQuiesceAndResubmitStaysLive) {
  // Workers park on the idle condition variable between bursts; a lost
  // wakeup would deadlock one of these cycles (each group must fully drain
  // before the next begins).
  support::ThreadPool pool(2);
  std::atomic<int> runs{0};
  for (int cycle = 0; cycle < 100; ++cycle) {
    support::TaskGroup group(pool);
    group.run([&runs] { runs.fetch_add(1, std::memory_order_relaxed); });
    group.wait();
  }
  EXPECT_EQ(100, runs.load());
}

TEST(ThreadPool, IdleTimeIsAccounted) {
  obs::Counter& idle = obs::metrics().counter("ad.pool.idle_us");
  const std::int64_t before = idle.value();
  {
    support::ThreadPool pool(2);
    // Quiet pool: workers park in waitForWork, which accumulates the parked
    // microseconds into ad.pool.idle_us on wakeup (here: shutdown).
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    support::TaskGroup group(pool);
    std::atomic<bool> ran{false};
    group.run([&ran] { ran.store(true, std::memory_order_relaxed); });
    group.wait();
    EXPECT_TRUE(ran.load());
  }
  EXPECT_GT(idle.value(), before);
}

TEST(ThreadPool, RunOneTaskReportsEmptiness) {
  support::ThreadPool pool(2);
  EXPECT_FALSE(pool.runOneTask());  // nothing queued
  // The pool clamps its worker count to [1, hardwareConcurrency()].
  EXPECT_GE(pool.threadCount(), 1u);
  EXPECT_LE(pool.threadCount(), 2u);
  EXPECT_GE(support::ThreadPool::hardwareConcurrency(), 1u);
}

// Trace tids are per OS thread, not per worker index: the workers of two
// pools alive at once never share a tid, so their spans never interleave on
// one trace track.
TEST(ThreadPool, ConcurrentPoolsGetDistinctWorkerTids) {
  support::ThreadPool a(2);
  support::ThreadPool b(2);
  std::mutex mu;
  std::vector<std::int64_t> tids;
  std::atomic<int> done{0};
  const auto occupyEveryWorker = [&](support::ThreadPool& pool, std::atomic<int>& arrived) {
    const int width = static_cast<int>(pool.threadCount());
    for (int i = 0; i < width; ++i) {
      pool.submit([&, width] {
        // Rendezvous: each task holds its worker until all `width` tasks of
        // this pool are running, so every worker records its tid once.
        arrived.fetch_add(1);
        while (arrived.load() < width) std::this_thread::yield();
        std::lock_guard<std::mutex> lock(mu);
        tids.push_back(obs::Tracer::currentThreadId());
        done.fetch_add(1);
      });
    }
  };
  std::atomic<int> arrivedA{0};
  std::atomic<int> arrivedB{0};
  occupyEveryWorker(a, arrivedA);
  occupyEveryWorker(b, arrivedB);
  const int total = static_cast<int>(a.threadCount() + b.threadCount());
  while (done.load() < total) std::this_thread::sleep_for(std::chrono::milliseconds(1));
  std::lock_guard<std::mutex> lock(mu);
  ASSERT_EQ(tids.size(), static_cast<std::size_t>(total));
  std::sort(tids.begin(), tids.end());
  EXPECT_EQ(std::adjacent_find(tids.begin(), tids.end()), tids.end())
      << "two pool workers share a trace tid";
}

}  // namespace
}  // namespace ad
