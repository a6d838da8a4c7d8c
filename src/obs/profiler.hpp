// Task-level contention profiler: where does the wall-clock of a parallel
// analysis run actually go?
//
// The ad.metrics.v1 counters (pool steals, memo hits, idle totals)
// are process-wide aggregates — they can say *that* eight threads only buy
// 8% over one, but not *where* the other seven threads wait. This module
// attributes every microsecond of a run to a (thread, cause) pair, the same
// way the paper's descriptors turn opaque traffic into attributable
// per-reference costs:
//
//  - Per-thread rows, derived from the tracer's span aggregates, one per OS
//    thread (trace tid and track name): idle_us is the self time of
//    `pool.idle` spans, lock_wait_us that of `lock.wait` spans (ShardLock's
//    contended path, ProofMemoContext::claimOrWait's park), work_us the
//    rest, and tasks/steals/helped count its `pool.task` spans. Self time
//    excludes nested spans, so a helped task counts once and work +
//    lock-wait + idle stays within wall time.
//
//  - Per-shard lock accounting (ShardStats): the interned-expression arena
//    and the proof memo time every contended mutex acquisition per shard,
//    and count hits/misses per shard, so "the memo is hot" becomes "shard 5
//    of the memo context table eats 80% of the lock-wait".
//
//  - Export: summary() renders a stable-schema "ad.profile.v2" JSON document
//    (--profile-out) with the pool-wide queue-latency histogram (a property
//    of tasks, not thread time). With --trace-out too, rows equal the
//    trace's per-tid self times.
//
// Cost discipline: disabled (the default), every instrumentation point is a
// single relaxed atomic load, mirroring obs::Span. Enabled, spans fold into
// per-thread aggregates (no raw events) and each profiled mutex costs one
// try_lock; bench/contention_profile gates the total below 5%.
#pragma once

#include <atomic>
#include <cstdint>
#include <mutex>
#include <string>
#include <string_view>

#include "obs/obs.hpp"

namespace ad::obs {

inline constexpr std::string_view kProfileSchema = "ad.profile.v2";

/// Per-shard lock/cache accounting for one sharded structure.
struct alignas(64) ShardStats {
  std::atomic<std::int64_t> acquisitions{0};
  std::atomic<std::int64_t> contended{0};   ///< try_lock failed, had to wait
  std::atomic<std::int64_t> lockWaitUs{0};  ///< total contended wait
  std::atomic<std::int64_t> hits{0};
  std::atomic<std::int64_t> misses{0};
  /// Total open-addressing slots inspected across all probes of this shard;
  /// probeSteps / (hits + misses) is the mean probe length, the direct
  /// health check of the hash-consed tables (≈1 when the cached hashes
  /// spread well, table-sized under the degenerate-hash test hook).
  std::atomic<std::int64_t> probeSteps{0};
};

/// The sharded structures the profiler knows how to attribute. Fixed enum —
/// lookups must be branch-free index math, not registry probes.
enum class ShardFamily : std::uint8_t {
  kExprIntern = 0,   ///< sym::ExprIntern arena shards
  kMemoContext,      ///< sym::ProofMemoContext result shards (summed over contexts)
  kMemoRegistry,     ///< sym::ProofMemo context-table shards
  kPhaseInfo,        ///< loc::analyzePhaseArray result-cache shards
};
inline constexpr std::size_t kShardFamilies = 4;
inline constexpr std::size_t kMaxShardsPerFamily = 64;

[[nodiscard]] const char* shardFamilyName(ShardFamily f);

class Profiler {
 public:
  /// Turns on the tracer's span folding and gives the calling thread a row,
  /// so a profile always has the coordinating thread.
  void enable();
  void disable();
  [[nodiscard]] bool enabled() const noexcept {
    return enabled_.load(std::memory_order_relaxed);
  }

  [[nodiscard]] ShardStats& shard(ShardFamily family, std::size_t index) noexcept {
    return shards_[static_cast<std::size_t>(family)][index % kMaxShardsPerFamily];
  }

  /// Lock-wait histogram (microseconds) of one family, fed by ShardLock.
  [[nodiscard]] Histogram& lockWaitHistogram(ShardFamily family) noexcept {
    return lockWait_[static_cast<std::size_t>(family)];
  }

  /// Zeroes every shard cell and histogram and clears the tracer (the rows'
  /// source), so rows and trace restart together.
  void reset();

  /// Stable-schema "ad.profile.v2" JSON: per-thread rows from the span
  /// aggregates, the queue-latency histogram, per-shard lock/cache rows
  /// (only shards with any traffic), per-family lock-wait histograms.
  [[nodiscard]] std::string summary() const;

 private:
  std::atomic<bool> enabled_{false};
  ShardStats shards_[kShardFamilies][kMaxShardsPerFamily];
  Histogram lockWait_[kShardFamilies];
};

/// The process-wide profiler.
Profiler& profiler();

/// Mutex guard that attributes contended acquisitions to (family, shard) and,
/// through a `lock.wait` span, to the calling thread. Disabled profiler: one
/// relaxed load + plain lock.
class ShardLock {
 public:
  ShardLock(std::mutex& mu, ShardFamily family, std::size_t index) : mu_(mu) {
    Profiler& p = profiler();
    if (!p.enabled()) {
      mu_.lock();
      return;
    }
    lockContended(p, family, index);
  }
  ~ShardLock() { mu_.unlock(); }

  ShardLock(const ShardLock&) = delete;
  ShardLock& operator=(const ShardLock&) = delete;

 private:
  void lockContended(Profiler& p, ShardFamily family, std::size_t index);
  std::mutex& mu_;
};

}  // namespace ad::obs
