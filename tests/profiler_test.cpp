// Tests for the task-level contention profiler (src/obs/profiler.hpp): the
// disabled path must record nothing, enable() must establish the "main" row,
// ShardLock must attribute contended acquisitions to the right (family,
// shard) cell, pool tasks must land in per-thread rows derived from span
// self time (helped tasks counted once), the ad.profile.v2 summary must keep
// its schema, profiling alone must keep no raw events, and spans must stay
// balanced when fault injection unwinds the pipeline mid-flight.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdlib>
#include <mutex>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "codes/suite.hpp"
#include "driver/pipeline.hpp"
#include "obs/obs.hpp"
#include "obs/profiler.hpp"
#include "support/fault.hpp"
#include "support/thread_pool.hpp"
#include "symbolic/intern.hpp"
#include "symbolic/ranges.hpp"

namespace ad::obs {
namespace {

class ProfilerTest : public ::testing::Test {
 protected:
  void SetUp() override {
    profiler().disable();
    profiler().reset();
    tracer().disable();
    tracer().clear();
    ASSERT_TRUE(support::FaultInjector::global().configure("").isOk());
  }
  void TearDown() override {
    profiler().disable();
    profiler().reset();
    tracer().disable();
    tracer().clear();
    support::FaultInjector::global().clear();
  }
};

TEST_F(ProfilerTest, DisabledShardLockRecordsNothing) {
  std::mutex mu;
  {
    ShardLock lock(mu, ShardFamily::kExprIntern, 3);
    EXPECT_FALSE(mu.try_lock());  // the guard does hold the mutex
  }
  const ShardStats& s = profiler().shard(ShardFamily::kExprIntern, 3);
  EXPECT_EQ(s.acquisitions.load(), 0);
  EXPECT_EQ(s.contended.load(), 0);
  EXPECT_EQ(profiler().lockWaitHistogram(ShardFamily::kExprIntern).count(), 0);
}

TEST_F(ProfilerTest, EnableBindsMainRow) {
  profiler().enable();
  const std::string summary = profiler().summary();
  EXPECT_NE(summary.find("\"name\": \"main\""), std::string::npos) << summary;
}

TEST_F(ProfilerTest, ShardLockAttributesContention) {
  profiler().enable();
  std::mutex mu;
  std::atomic<bool> holderIn{false};
  std::atomic<bool> release{false};
  std::thread holder([&] {
    ShardLock lock(mu, ShardFamily::kMemoContext, 5);
    holderIn.store(true);
    while (!release.load()) std::this_thread::yield();
  });
  while (!holderIn.load()) std::this_thread::yield();
  std::thread blocked([&] {
    // Arrives while `holder` owns the shard: try_lock fails, the timed
    // fallback path records the contended acquisition.
    std::thread poker([&] {
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
      release.store(true);
    });
    ShardLock lock(mu, ShardFamily::kMemoContext, 5);
    poker.join();
  });
  blocked.join();
  holder.join();

  const ShardStats& s = profiler().shard(ShardFamily::kMemoContext, 5);
  EXPECT_EQ(s.acquisitions.load(), 2);
  EXPECT_GE(s.contended.load(), 1);
  EXPECT_GE(s.lockWaitUs.load(), 0);
  EXPECT_GE(profiler().lockWaitHistogram(ShardFamily::kMemoContext).count(), 1);
  const std::string summary = profiler().summary();
  EXPECT_NE(summary.find("\"memo.context\""), std::string::npos);
}

TEST_F(ProfilerTest, PoolTasksLandInWorkerRows) {
  profiler().enable();
  {
    support::ThreadPool pool(2);
    support::TaskGroup group(pool);
    std::atomic<int> runs{0};
    for (int i = 0; i < 64; ++i) {
      group.run([&runs] { runs.fetch_add(1, std::memory_order_relaxed); });
    }
    group.wait();
    EXPECT_EQ(runs.load(), 64);
  }
  const std::string summary = profiler().summary();
  EXPECT_NE(summary.find("\"name\": \"pool.w0\""), std::string::npos) << summary;
  // All 64 tasks must be attributed to some row (worker or helping main).
  std::int64_t tasks = 0;
  for (std::size_t pos = summary.find("\"tasks\": "); pos != std::string::npos;
       pos = summary.find("\"tasks\": ", pos + 1)) {
    tasks += std::strtoll(summary.c_str() + pos + 9, nullptr, 10);
  }
  EXPECT_EQ(tasks, 64);
}

TEST_F(ProfilerTest, SummaryKeepsSchema) {
  profiler().enable();
  const std::string summary = profiler().summary();
  for (const char* needle :
       {"\"schema\": \"ad.profile.v2\"", "\"threads\":", "\"tid\"", "\"queue_wait_us\":",
        "\"shards\":", "\"lock_wait_us\":", "\"intern.expr\"", "\"memo.context\"",
        "\"memo.registry\"", "\"loc.phase_array\"", "\"work_us\"", "\"idle_us\"",
        "\"steals\"", "\"helped\""}) {
    EXPECT_NE(summary.find(needle), std::string::npos) << "summary lacks " << needle;
  }
}

TEST_F(ProfilerTest, ResetZeroesRowsAndShards) {
  profiler().enable();
  {
    Span s("test.work");
  }
  ASSERT_EQ(tracer().statsByName().count("test.work"), 1u);
  profiler().shard(ShardFamily::kExprIntern, 1).acquisitions.fetch_add(3,
                                                                       std::memory_order_relaxed);
  profiler().shard(ShardFamily::kExprIntern, 1).probeSteps.fetch_add(9,
                                                                     std::memory_order_relaxed);
  profiler().lockWaitHistogram(ShardFamily::kExprIntern).observe(10);
  profiler().reset();
  EXPECT_TRUE(tracer().statsByName().empty());
  EXPECT_EQ(profiler().shard(ShardFamily::kExprIntern, 1).acquisitions.load(), 0);
  EXPECT_EQ(profiler().shard(ShardFamily::kExprIntern, 1).probeSteps.load(), 0);
  EXPECT_EQ(profiler().lockWaitHistogram(ShardFamily::kExprIntern).count(), 0);
  // The calling thread keeps its (now empty) row.
  EXPECT_NE(profiler().summary().find("\"name\": \"main\""), std::string::npos);
}

// Profiling alone folds spans into aggregates and keeps no raw event list,
// so a long-lived profiled service stays bounded in memory.
TEST_F(ProfilerTest, ProfileOnlyKeepsNoEvents) {
  profiler().enable();
  for (int i = 0; i < 100; ++i) {
    Span s("test.profiled");
  }
  EXPECT_TRUE(tracer().snapshot().empty());
  EXPECT_EQ(tracer().statsByName().at("test.profiled").count, 100);
}

// A waiter that helps inside TaskGroup::wait runs other tasks inside its own
// open span. Their time is the span's child time, not its self time, and the
// helping thread's row (work + lock-wait + idle) stays within wall time even
// when the helped tasks themselves wait on nested groups and help again.
TEST_F(ProfilerTest, HelpedTasksLeaveWaiterSelfTime) {
  profiler().enable();
  const std::int64_t t0 = tracer().nowUs();
  {
    support::ThreadPool pool(2);
    Span outer("test.outer");
    support::TaskGroup group(pool);
    for (int i = 0; i < 4; ++i) {
      group.run([&pool] {
        support::TaskGroup inner(pool);
        for (int k = 0; k < 3; ++k) {
          inner.run([] { std::this_thread::sleep_for(std::chrono::milliseconds(3)); });
        }
        inner.wait();
      });
    }
    group.wait();
  }
  const std::int64_t wallUs = tracer().nowUs() - t0;
  profiler().disable();

  const auto threads = tracer().statsByThread();
  const auto mainIt = std::find_if(threads.begin(), threads.end(),
                                   [](const ThreadSpans& t) { return t.tid == 0; });
  ASSERT_NE(mainIt, threads.end());
  const ThreadSpans& main = *mainIt;
  const SpanStats outer = main.spans.at("test.outer").at("pipeline");
  std::int64_t nestedSelf = 0;
  std::int64_t helped = 0;
  for (const auto& [name, byCat] : main.spans) {
    for (const auto& [cat, st] : byCat) {
      EXPECT_GE(st.selfUs, 0) << name;
      EXPECT_LE(st.selfUs, st.totalUs) << name;
      if (name != "test.outer") nestedSelf += st.selfUs;
      if (name == "pool.task") helped += st.count;
    }
  }
  ASSERT_GT(helped, 0) << "the waiting thread never helped";
  // Everything main did inside the outer span is nested in it, so the outer
  // span's self time is exactly its duration minus that nested time. The
  // 12 sleeping tasks over at most three threads keep main busy helping or
  // parked for well over one 3 ms sleep, none of it the outer span's own.
  EXPECT_EQ(outer.selfUs, outer.totalUs - nestedSelf);
  EXPECT_GE(nestedSelf, 3000);

  for (const ThreadSpans& t : threads) {
    std::int64_t self = 0;
    for (const auto& [name, byCat] : t.spans) {
      for (const auto& [cat, st] : byCat) self += st.selfUs;
    }
    EXPECT_LE(self, wallUs) << t.name << " (tid " << t.tid << ")";
  }
  // The row the profile prints for main is main's self time, within wall.
  const std::string summary = profiler().summary();
  const std::size_t row = summary.find("\"tid\": 0,");
  ASSERT_NE(row, std::string::npos) << summary;
  const auto field = [&](const char* key) {
    const std::size_t pos = summary.find(key, row);
    return std::strtoll(summary.c_str() + pos + std::string_view(key).size(), nullptr, 10);
  };
  const std::int64_t rowUs =
      field("\"work_us\": ") + field("\"lock_wait_us\": ") + field("\"idle_us\": ");
  EXPECT_EQ(rowUs, outer.selfUs + nestedSelf) << summary;
  EXPECT_LE(rowUs, wallUs) << summary;
}

// A thread parked in ProofMemoContext::claimOrWait, waiting for another
// thread's in-flight proof, is waiting on a lock: its row books the park as
// lock_wait_us, not work_us.
TEST_F(ProfilerTest, ProofClaimWaitCountsAsLockWait) {
  sym::SymbolTable st;
  const auto p = st.parameter("P");
  const sym::Assumptions assumptions(st);
  const auto ctx = sym::ProofMemo::global().context(assumptions);
  const sym::InternedExpr e = sym::ExprIntern::global().intern(sym::Expr::symbol(p));
  const auto op = sym::ProofMemoContext::Op::kNonNegative;
  profiler().enable();
  std::atomic<bool> claimed{false};
  std::thread holder([&] {
    ASSERT_TRUE(ctx->claimOrWait(op, e));
    claimed.store(true);
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
    ctx->release(op, e);
  });
  while (!claimed.load()) std::this_thread::yield();
  const bool owned = ctx->claimOrWait(op, e);  // parks until the holder releases
  holder.join();
  profiler().disable();
  EXPECT_FALSE(owned);

  const std::string summary = profiler().summary();
  const std::size_t row = summary.find("\"tid\": 0,");
  ASSERT_NE(row, std::string::npos) << summary;
  const std::size_t pos = summary.find("\"lock_wait_us\": ", row);
  ASSERT_NE(pos, std::string::npos) << summary;
  const std::int64_t lockWaitUs =
      std::strtoll(summary.c_str() + pos + std::string_view("\"lock_wait_us\": ").size(),
                   nullptr, 10);
  EXPECT_GT(lockWaitUs, 0) << summary;
}

// Probe-length accounting: interning under an enabled profiler accumulates
// probe_steps for the touched shards, the shard rows expose them in the
// summary, and the mean probe length stays near 1 with healthy hashes.
TEST_F(ProfilerTest, InternProbeStepsAttributed) {
  sym::ExprIntern::global().clear();
  profiler().enable();
  sym::SymbolTable st;
  const auto p = st.parameter("P");
  std::int64_t expectedProbes = 0;
  for (int k = 0; k < 64; ++k) {
    (void)sym::ExprIntern::global().intern(sym::Expr::symbol(p) * sym::Expr::constant(k));
    (void)sym::ExprIntern::global().intern(sym::Expr::symbol(p) * sym::Expr::constant(k));
    expectedProbes += 2;
  }
  std::int64_t steps = 0;
  std::int64_t probes = 0;
  for (std::size_t i = 0; i < kMaxShardsPerFamily; ++i) {
    const ShardStats& s = profiler().shard(ShardFamily::kExprIntern, i);
    steps += s.probeSteps.load(std::memory_order_relaxed);
    probes += s.hits.load(std::memory_order_relaxed) +
              s.misses.load(std::memory_order_relaxed);
  }
  EXPECT_EQ(probes, expectedProbes);
  EXPECT_GE(steps, probes);  // every probe inspects at least one slot
  // Mean probe length near 1: the cached-hash open addressing barely chains.
  EXPECT_LT(static_cast<double>(steps), 2.0 * static_cast<double>(probes));
  EXPECT_NE(profiler().summary().find("\"probe_steps\""), std::string::npos);
  sym::ExprIntern::global().clear();
}

// Satellite guarantee: a fault that unwinds a pipeline task mid-analysis must
// not leave half-open spans — Span is RAII, so every recorded event carries a
// complete (ts, dur) pair and every batch item still closes its root span.
TEST_F(ProfilerTest, SpansStayBalancedUnderFaultInjection) {
  ASSERT_TRUE(support::FaultInjector::global().configure("pool.task@2").isOk());
  tracer().enable();
  profiler().enable();
  sym::ProofMemoEnabledGuard memoOn(true);

  const auto& suite = codes::benchmarkSuite();
  std::vector<ir::Program> programs;
  std::vector<driver::BatchItem> batch;
  programs.reserve(suite.size());
  for (const auto& info : suite) programs.push_back(info.build());
  for (std::size_t i = 0; i < suite.size(); ++i) {
    driver::BatchItem item;
    item.program = &programs[i];
    item.label = suite[i].name;
    item.config.params = codes::bindParams(programs[i], suite[i].smallParams);
    item.config.processors = 4;
    item.config.simulatePlan = false;
    item.config.simulateBaseline = false;
    batch.push_back(std::move(item));
  }
  const auto results = driver::analyzeBatch(batch, 2);
  tracer().disable();
  profiler().disable();

  std::size_t failed = 0;
  for (const auto& res : results) failed += res.has_value() ? 0 : 1;
  EXPECT_EQ(failed, 1u) << "exactly the poisoned task should fail";

  const auto events = tracer().snapshot();
  ASSERT_FALSE(events.empty());
  for (const auto& e : events) {
    EXPECT_GE(e.ts, 0) << e.name;
    EXPECT_GE(e.dur, 0) << e.name;
    EXPECT_FALSE(e.name.empty());
  }
  // Every item whose analysis started closed its root span. The pool.task
  // fault fires before the task body, so the killed item either never opened
  // its span (item task killed) or opened and closed it (a nested
  // per-(phase,array) subtask was the one killed) — never half-open.
  const auto stats = tracer().statsByName();
  const auto it = stats.find("pipeline.analyze_and_simulate");
  ASSERT_NE(it, stats.end());
  EXPECT_GE(it->second.count, batch.size() - 1);
  EXPECT_LE(it->second.count, batch.size());
}

}  // namespace
}  // namespace ad::obs
