// Pipeline-wide observability: tracing spans and a metrics registry.
//
// Two process-wide singletons, both thread-safe:
//
//  - obs::tracer() is the one telemetry stream. obs::Span is an RAII scope;
//    its close is the only event. While the tracer is active it folds the
//    span's count, inclusive and self time into a per-(OS thread, name)
//    aggregate (stage tables and the profiler's thread rows read these),
//    and with trace export on it also keeps one Chrome/Perfetto "complete"
//    event (ph:"X"). Inactive (the default), the constructor is a single
//    relaxed atomic load and nothing else — instrumentation stays in
//    release builds at near-zero cost. Tracer::toJson() renders the Chrome
//    trace-event format that chrome://tracing and ui.perfetto.dev load
//    directly.
//
//  - obs::metrics() is a registry of named counters, gauges, and histograms.
//    Counters shard their cell across cache lines so concurrent increments
//    do not contend; MetricsRegistry::toJson() renders a stable-schema document
//    ("ad.metrics.v1", keys sorted).
//
// Naming convention for both spans and metrics: `ad.<subsystem>.<name>` for
// metrics (ad.desc.stride_coalescings, ad.sim.remote_accesses) and
// `<subsystem>.<stage>` for span names (pipeline.ilp_solve, dsm.simulate).
// Instruments must register their metric names unconditionally (fetch the
// counter even when adding zero) so the exported schema is stable across
// inputs.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <limits>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

namespace ad::obs {

inline constexpr std::string_view kMetricsSchema = "ad.metrics.v1";

// ---------------------------------------------------------------------------
// Metrics
// ---------------------------------------------------------------------------

/// Monotonic counter, sharded across cache lines: each thread lands on a
/// fixed shard, so concurrent add() calls from pool workers never bounce one
/// cache line around.
class Counter {
 public:
  static constexpr std::size_t kShards = 16;

  void add(std::int64_t n = 1) noexcept;
  [[nodiscard]] std::int64_t value() const noexcept;
  void reset() noexcept;

 private:
  struct alignas(64) Cell {
    std::atomic<std::int64_t> v{0};
  };
  Cell cells_[kShards];
};

/// Last-write-wins instantaneous value (model sizes, configuration).
class Gauge {
 public:
  void set(std::int64_t v) noexcept { v_.store(v, std::memory_order_relaxed); }
  [[nodiscard]] std::int64_t value() const noexcept { return v_.load(std::memory_order_relaxed); }
  void reset() noexcept { v_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<std::int64_t> v_{0};
};

/// Exponential-bucket histogram of non-negative values (base-2 bounds
/// 1, 2, 4, ... plus an overflow bucket). Thread-safe relaxed atomics
/// throughout; count/sum are exact, min/max maintained by CAS.
class Histogram {
 public:
  static constexpr std::size_t kBuckets = 32;  ///< le 2^0 .. 2^30, then +inf

  void observe(std::int64_t v) noexcept;
  [[nodiscard]] std::int64_t count() const noexcept;
  [[nodiscard]] std::int64_t sum() const noexcept;
  [[nodiscard]] std::int64_t minValue() const noexcept;  ///< 0 when empty
  [[nodiscard]] std::int64_t maxValue() const noexcept;  ///< 0 when empty
  [[nodiscard]] std::int64_t bucketCount(std::size_t i) const noexcept;
  /// Inclusive upper bound of bucket i; INT64_MAX for the overflow bucket.
  [[nodiscard]] static std::int64_t bucketBound(std::size_t i) noexcept;
  /// {"count","sum","min","max","buckets":[{"le","count"}...]} up to the
  /// last non-empty bucket.
  [[nodiscard]] std::string toJson() const;
  void reset() noexcept;

 private:
  std::atomic<std::int64_t> buckets_[kBuckets]{};
  Counter count_;
  Counter sum_;
  std::atomic<std::int64_t> min_{std::numeric_limits<std::int64_t>::max()};
  std::atomic<std::int64_t> max_{std::numeric_limits<std::int64_t>::min()};
};

/// Named instrument registry. Lookup takes a mutex (cache the reference on
/// hot paths); the instruments themselves are lock-free. References stay
/// valid for the life of the process — reset() zeroes values, it never
/// removes registrations, so the exported key set only grows.
class MetricsRegistry {
 public:
  Counter& counter(std::string_view name);
  Gauge& gauge(std::string_view name);
  Histogram& histogram(std::string_view name);

  /// Zeroes every instrument (registrations survive).
  void reset();

  /// Stable-schema JSON: {"schema":"ad.metrics.v1","counters":{...},
  /// "gauges":{...},"histograms":{...}} with keys in sorted order.
  [[nodiscard]] std::string toJson() const;

 private:
  mutable std::mutex mu_;
  std::map<std::string, std::unique_ptr<Counter>, std::less<>> counters_;
  std::map<std::string, std::unique_ptr<Gauge>, std::less<>> gauges_;
  std::map<std::string, std::unique_ptr<Histogram>, std::less<>> histograms_;
};

/// The process-wide registry.
MetricsRegistry& metrics();

// ---------------------------------------------------------------------------
// Tracing
// ---------------------------------------------------------------------------

/// One Chrome trace-event "complete" event (ph:"X").
struct TraceEvent {
  std::string name;
  std::string cat;
  std::int64_t ts = 0;   ///< microseconds since the tracer epoch
  std::int64_t dur = 0;  ///< microseconds
  std::int64_t tid = 0;
};

/// Folded closed spans of one name (and, per thread, one category).
struct SpanStats {
  std::int64_t count = 0;
  std::int64_t totalUs = 0;  ///< inclusive: the spans' summed durations
  std::int64_t selfUs = 0;   ///< exclusive: minus the spans nested directly inside
};

/// One OS thread's folded spans: trace tid, track name, and aggregates keyed
/// by span name, then category.
struct ThreadSpans {
  std::int64_t tid = 0;
  std::string name;
  std::map<std::string, std::map<std::string, SpanStats, std::less<>>, std::less<>> spans;
};

class Span;

class Tracer {
 public:
  Tracer() : epoch_(std::chrono::steady_clock::now()) {}

  /// Trace export: closed spans also keep raw events (snapshot(), toJson()).
  void enable() { mode_.fetch_or(kEvents, std::memory_order_relaxed); }
  void disable() { mode_.fetch_and(~kEvents, std::memory_order_relaxed); }
  [[nodiscard]] bool enabled() const noexcept {
    return (mode_.load(std::memory_order_relaxed) & kEvents) != 0;
  }
  /// Folding only (the profiler): no raw events, so memory stays bounded.
  void enableFolding() { mode_.fetch_or(kFolding, std::memory_order_relaxed); }
  void disableFolding() { mode_.fetch_and(~kFolding, std::memory_order_relaxed); }
  /// True while spans record at all (either switch on).
  [[nodiscard]] bool active() const noexcept {
    return mode_.load(std::memory_order_relaxed) != 0;
  }

  /// Microseconds since the tracer was constructed (works while disabled).
  [[nodiscard]] std::int64_t nowUs() const;

  /// The calling thread's trace tid: unique per OS thread, assigned on first
  /// use (the process's main thread is 0, the others count up from 1).
  [[nodiscard]] static std::int64_t currentThreadId() noexcept;
  /// Names the calling thread's track (trace thread_name, profile row name);
  /// unnamed threads are "main" (the process's main thread) or "thread".
  void nameCurrentThread(std::string name);
  /// Gives the calling thread a track (a profile row) before its first span.
  void registerCurrentThread();

  [[nodiscard]] std::vector<TraceEvent> snapshot() const;
  /// Span aggregates per thread, in registration order.
  [[nodiscard]] std::vector<ThreadSpans> statsByThread() const;
  /// Span aggregates per name, summed over threads and categories.
  [[nodiscard]] std::map<std::string, SpanStats> statsByName() const;

  /// Drops raw events, zeroes aggregates, forgets exited threads' tracks.
  void clear();

  /// Chrome trace-event JSON document ({"traceEvents":[...]}).
  [[nodiscard]] std::string toJson() const;

  struct Track {
    ThreadSpans data;  ///< tid is fixed; name is guarded by Tracer::mu_
    std::mutex mu;     ///< guards data.spans: the owning thread folds, readers copy
    std::atomic<bool> exited{false};  ///< set when the owning thread ends
  };

 private:
  friend class Span;
  static constexpr unsigned kEvents = 1;
  static constexpr unsigned kFolding = 2;

  Track& currentTrack();
  void fold(Span& span, std::int64_t endUs);

  std::atomic<unsigned> mode_{0};
  std::chrono::steady_clock::time_point epoch_;
  mutable std::mutex mu_;  ///< guards events_ and tracks_ (and their names)
  std::vector<TraceEvent> events_;
  std::vector<std::unique_ptr<Track>> tracks_;
};

/// The process-wide tracer.
Tracer& tracer();

/// RAII span on the process tracer. Inactive tracer: construction is one
/// relaxed load, destruction a branch — no clock reads, no allocation. At
/// close an active span adds its duration to its parent's child time (the
/// innermost span open on the same thread) and folds its self time
/// (duration minus its children's) into the thread's aggregates, so a pool
/// task helped inside a waiting span is that span's child, not its work.
class Span {
 public:
  explicit Span(std::string_view name, std::string_view cat = "pipeline");
  ~Span();

  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  friend class Tracer;
  std::string name_;
  std::string cat_;
  Span* parent_ = nullptr;
  std::int64_t startUs_ = 0;
  std::int64_t childUs_ = 0;
  bool active_ = false;
};

}  // namespace ad::obs
