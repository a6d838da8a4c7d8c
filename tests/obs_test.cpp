// Tests for the observability layer (src/obs/): sharded counters, gauges,
// histograms, the metrics registry's stable JSON schema, and the tracer's
// span nesting, self time, per-thread tids and Chrome-trace export. The concurrency tests are the ones the
// CI TSan stage runs — they hammer the same counter/histogram/tracer from
// many threads and assert exact totals.
#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <limits>
#include <string>
#include <thread>
#include <vector>

#include "obs/obs.hpp"

namespace ad::obs {
namespace {

// Every test starts from a clean slate; the registry and tracer are
// process-wide singletons shared across TEST cases.
class ObsTest : public ::testing::Test {
 protected:
  void SetUp() override {
    metrics().reset();
    tracer().clear();
    tracer().disable();
  }
  void TearDown() override {
    tracer().disable();
    tracer().disableFolding();
    tracer().clear();
  }
};

TEST_F(ObsTest, CounterSingleThread) {
  Counter& c = metrics().counter("ad.test.basic");
  EXPECT_EQ(c.value(), 0);
  c.add(3);
  c.add(4);
  EXPECT_EQ(c.value(), 7);
  c.reset();
  EXPECT_EQ(c.value(), 0);
}

TEST_F(ObsTest, CounterSameNameSameInstance) {
  Counter& a = metrics().counter("ad.test.alias");
  Counter& b = metrics().counter("ad.test.alias");
  EXPECT_EQ(&a, &b);
  a.add(1);
  EXPECT_EQ(b.value(), 1);
}

TEST_F(ObsTest, CounterConcurrentIncrementsExact) {
  constexpr int kThreads = 8;
  constexpr std::int64_t kPerThread = 100000;
  Counter& c = metrics().counter("ad.test.concurrent");
  std::vector<std::thread> workers;
  workers.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&c] {
      for (std::int64_t i = 0; i < kPerThread; ++i) c.add(1);
    });
  }
  for (auto& w : workers) w.join();
  EXPECT_EQ(c.value(), kThreads * kPerThread);
}

TEST_F(ObsTest, GaugeSetAndValue) {
  Gauge& g = metrics().gauge("ad.test.gauge");
  EXPECT_EQ(g.value(), 0);
  g.set(42);
  g.set(-7);
  EXPECT_EQ(g.value(), -7);
}

TEST_F(ObsTest, HistogramBucketsAndStats) {
  Histogram& h = metrics().histogram("ad.test.hist");
  h.observe(0);
  h.observe(1);
  h.observe(2);
  h.observe(1000);
  EXPECT_EQ(h.count(), 4);
  EXPECT_EQ(h.sum(), 1003);
  EXPECT_EQ(h.minValue(), 0);
  EXPECT_EQ(h.maxValue(), 1000);
}

TEST_F(ObsTest, HistogramOverflowBucketCatchesExtremes) {
  Histogram& h = metrics().histogram("ad.test.hist_overflow");
  // The last bucket is the +inf catch-all; its bound must say so.
  EXPECT_EQ(Histogram::bucketBound(Histogram::kBuckets - 1),
            std::numeric_limits<std::int64_t>::max());
  h.observe(std::numeric_limits<std::int64_t>::max());
  h.observe(std::int64_t{1} << 40);
  h.observe(std::int64_t{1} << 62);
  EXPECT_EQ(h.count(), 3);
  EXPECT_EQ(h.bucketCount(Histogram::kBuckets - 1), 3);
  EXPECT_EQ(h.maxValue(), std::numeric_limits<std::int64_t>::max());
  EXPECT_EQ(h.minValue(), std::int64_t{1} << 40);
  // No other bucket may have absorbed them.
  for (std::size_t i = 0; i + 1 < Histogram::kBuckets; ++i) {
    EXPECT_EQ(h.bucketCount(i), 0) << "bucket " << i;
  }
}

TEST_F(ObsTest, HistogramMinMaxConcurrentCasExact) {
  // Every thread observes a distinct band of values; the CAS loops in
  // observe() must converge on the exact global extremes under concurrent
  // updates. Negative inputs clamp to 0 (observations are durations), so
  // thread 0's dips below zero must surface as an exact minimum of 0.
  // Runs under TSan in CI.
  constexpr int kThreads = 8;
  constexpr std::int64_t kPerThread = 20000;
  Histogram& h = metrics().histogram("ad.test.hist_minmax");
  std::vector<std::thread> workers;
  workers.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&h, t] {
      for (std::int64_t i = 0; i < kPerThread; ++i) {
        h.observe(t * 1000 + (i % 100) - 50);  // thread 0 dips to -50
      }
    });
  }
  for (auto& w : workers) w.join();
  EXPECT_EQ(h.count(), kThreads * kPerThread);
  EXPECT_EQ(h.minValue(), 0);  // clamped, not -50
  EXPECT_EQ(h.maxValue(), (kThreads - 1) * 1000 + 49);
}

TEST_F(ObsTest, HistogramConcurrentObservesExact) {
  constexpr int kThreads = 8;
  constexpr std::int64_t kPerThread = 50000;
  Histogram& h = metrics().histogram("ad.test.hist_concurrent");
  std::vector<std::thread> workers;
  workers.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&h, t] {
      for (std::int64_t i = 0; i < kPerThread; ++i) h.observe(t + 1);
    });
  }
  for (auto& w : workers) w.join();
  EXPECT_EQ(h.count(), kThreads * kPerThread);
  // sum of (t+1) over threads, kPerThread observations each
  EXPECT_EQ(h.sum(), kPerThread * (kThreads * (kThreads + 1) / 2));
  EXPECT_EQ(h.minValue(), 1);
  EXPECT_EQ(h.maxValue(), kThreads);
}

TEST_F(ObsTest, MetricsJsonSchema) {
  metrics().counter("ad.test.json_counter").add(5);
  metrics().gauge("ad.test.json_gauge").set(9);
  metrics().histogram("ad.test.json_hist").observe(3);
  const std::string json = metrics().toJson();
  EXPECT_NE(json.find("\"schema\": \"ad.metrics.v1\""), std::string::npos);
  EXPECT_NE(json.find("\"counters\""), std::string::npos);
  EXPECT_NE(json.find("\"gauges\""), std::string::npos);
  EXPECT_NE(json.find("\"histograms\""), std::string::npos);
  EXPECT_NE(json.find("\"ad.test.json_counter\": 5"), std::string::npos);
  EXPECT_NE(json.find("\"ad.test.json_gauge\": 9"), std::string::npos);
  EXPECT_NE(json.find("\"ad.test.json_hist\""), std::string::npos);
}

TEST_F(ObsTest, ResetZeroesButKeepsKeys) {
  metrics().counter("ad.test.sticky").add(11);
  metrics().reset();
  // The key survives a reset (schema stability); only the value is zeroed.
  EXPECT_NE(metrics().toJson().find("\"ad.test.sticky\": 0"), std::string::npos);
}

TEST_F(ObsTest, DisabledTracerRecordsNothing) {
  ASSERT_FALSE(tracer().enabled());
  {
    Span s("never.recorded");
  }
  EXPECT_TRUE(tracer().snapshot().empty());
}

TEST_F(ObsTest, SpanNestingAndOrdering) {
  tracer().enable();
  {
    Span outer("test.outer");
    {
      Span inner("test.inner");
    }
  }
  const auto events = tracer().snapshot();
  ASSERT_EQ(events.size(), 2u);
  // Spans are recorded at destruction: inner closes first.
  EXPECT_EQ(events[0].name, "test.inner");
  EXPECT_EQ(events[1].name, "test.outer");
  // The inner span's interval is contained in the outer's.
  EXPECT_GE(events[0].ts, events[1].ts);
  EXPECT_LE(events[0].ts + events[0].dur, events[1].ts + events[1].dur);
}

TEST_F(ObsTest, TraceJsonExport) {
  tracer().enable();
  std::thread([] {
    tracer().nameCurrentThread("test.worker");
    Span s("test.exported", "unit");
  }).join();
  const std::string json = tracer().toJson();
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("\"displayTimeUnit\": \"ms\""), std::string::npos);
  EXPECT_NE(json.find("\"name\": \"test.exported\""), std::string::npos);
  EXPECT_NE(json.find("\"cat\": \"unit\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\": \"X\""), std::string::npos);
  // thread_name metadata event for the named worker's track.
  EXPECT_NE(json.find("\"thread_name\""), std::string::npos);
  EXPECT_NE(json.find("test.worker"), std::string::npos);
}

TEST_F(ObsTest, ConcurrentSpansFromManyThreads) {
  tracer().enable();
  constexpr int kThreads = 8;
  constexpr int kSpansPerThread = 200;
  std::vector<std::int64_t> tids(kThreads, -1);
  std::vector<std::thread> workers;
  workers.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([t, &tids] {
      tids[t] = Tracer::currentThreadId();
      for (int i = 0; i < kSpansPerThread; ++i) {
        Span s("test.mt");
      }
    });
  }
  for (auto& w : workers) w.join();
  const auto stats = tracer().statsByName();
  auto it = stats.find("test.mt");
  ASSERT_NE(it, stats.end());
  EXPECT_EQ(it->second.count, kThreads * kSpansPerThread);
  // Every event carries the tid of the thread that closed it: each thread's
  // tid owns exactly its own spans.
  const auto events = tracer().snapshot();
  EXPECT_EQ(events.size(), static_cast<std::size_t>(kThreads * kSpansPerThread));
  for (const std::int64_t tid : tids) {
    EXPECT_EQ(std::count_if(events.begin(), events.end(),
                            [tid](const TraceEvent& e) { return e.tid == tid; }),
              kSpansPerThread)
        << "tid " << tid;
  }
}

TEST_F(ObsTest, PlainThreadsGetDistinctTids) {
  constexpr int kThreads = 8;
  std::vector<std::int64_t> tids(kThreads, -1);
  std::vector<std::thread> workers;
  workers.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([t, &tids] { tids[t] = Tracer::currentThreadId(); });
  }
  for (auto& w : workers) w.join();
  tids.push_back(Tracer::currentThreadId());  // the test's own (main) thread
  std::sort(tids.begin(), tids.end());
  EXPECT_EQ(std::adjacent_find(tids.begin(), tids.end()), tids.end())
      << "two OS threads share a trace tid";
}

TEST_F(ObsTest, SelfTimeExcludesNestedSpans) {
  tracer().enable();
  {
    Span outer("test.outer");
    for (int i = 0; i < 2; ++i) {
      Span inner("test.inner");
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
  }
  const auto stats = tracer().statsByName();
  const SpanStats& outer = stats.at("test.outer");
  const SpanStats& inner = stats.at("test.inner");
  EXPECT_EQ(inner.count, 2);
  EXPECT_EQ(inner.selfUs, inner.totalUs);  // leaves own all their time
  EXPECT_GE(inner.totalUs, 4000);
  EXPECT_EQ(outer.selfUs, outer.totalUs - inner.totalUs);
  EXPECT_GE(outer.selfUs, 0);
}

TEST_F(ObsTest, FoldingWithoutExportKeepsNoEvents) {
  tracer().enableFolding();
  {
    Span s("test.folded");
  }
  tracer().disableFolding();
  EXPECT_TRUE(tracer().snapshot().empty());
  EXPECT_EQ(tracer().statsByName().at("test.folded").count, 1);
}

TEST_F(ObsTest, StatsByNameAggregates) {
  tracer().enable();
  for (int i = 0; i < 3; ++i) {
    Span s("test.repeat");
  }
  const auto stats = tracer().statsByName();
  auto it = stats.find("test.repeat");
  ASSERT_NE(it, stats.end());
  EXPECT_EQ(it->second.count, 3);
  EXPECT_GE(it->second.totalUs, 0);
}

}  // namespace
}  // namespace ad::obs
