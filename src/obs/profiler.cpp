#include "obs/profiler.hpp"

#include <sstream>

namespace ad::obs {

namespace {

/// Submit -> start latency of pool tasks, fed by support::ThreadPool.
constexpr std::string_view kQueueWaitMetric = "ad.pool.queue_wait_us";

}  // namespace

const char* shardFamilyName(ShardFamily f) {
  switch (f) {
    case ShardFamily::kExprIntern: return "intern.expr";
    case ShardFamily::kMemoContext: return "memo.context";
    case ShardFamily::kMemoRegistry: return "memo.registry";
    case ShardFamily::kPhaseInfo: return "loc.phase_array";
  }
  return "unknown";
}

void Profiler::enable() {
  tracer().enableFolding();
  tracer().registerCurrentThread();
  enabled_.store(true, std::memory_order_relaxed);
}

void Profiler::disable() {
  enabled_.store(false, std::memory_order_relaxed);
  tracer().disableFolding();
}

void Profiler::reset() {
  tracer().clear();
  metrics().histogram(kQueueWaitMetric).reset();
  for (auto& family : shards_) {
    for (auto& s : family) {
      s.acquisitions.store(0, std::memory_order_relaxed);
      s.contended.store(0, std::memory_order_relaxed);
      s.lockWaitUs.store(0, std::memory_order_relaxed);
      s.hits.store(0, std::memory_order_relaxed);
      s.misses.store(0, std::memory_order_relaxed);
      s.probeSteps.store(0, std::memory_order_relaxed);
    }
  }
  for (auto& h : lockWait_) h.reset();
}

std::string Profiler::summary() const {
  std::ostringstream os;
  os << "{\n  \"schema\": \"" << kProfileSchema << "\",\n";

  os << "  \"threads\": [";
  bool first = true;
  for (const ThreadSpans& t : tracer().statsByThread()) {
    std::int64_t self = 0, idle = 0, lockWait = 0, tasks = 0, steals = 0, helped = 0;
    for (const auto& [name, byCat] : t.spans) {
      for (const auto& [cat, s] : byCat) {
        self += s.selfUs;
        if (name == "pool.idle") idle += s.selfUs;
        if (name == "lock.wait") lockWait += s.selfUs;
        if (name != "pool.task") continue;
        tasks += s.count;
        if (cat == "pool.steal") steals += s.count;
        if (cat == "pool.help") helped += s.count;
      }
    }
    os << (first ? "\n" : ",\n") << "    {\"name\": \"" << t.name << "\", \"tid\": " << t.tid
       << ", \"tasks\": " << tasks << ", \"work_us\": " << self - idle - lockWait
       << ", \"lock_wait_us\": " << lockWait << ", \"idle_us\": " << idle
       << ", \"steals\": " << steals << ", \"helped\": " << helped << "}";
    first = false;
  }
  os << (first ? "" : "\n  ") << "],\n";

  os << "  \"queue_wait_us\": " << metrics().histogram(kQueueWaitMetric).toJson() << ",\n";

  os << "  \"shards\": {";
  bool firstFamily = true;
  for (std::size_t f = 0; f < kShardFamilies; ++f) {
    os << (firstFamily ? "\n" : ",\n") << "    \""
       << shardFamilyName(static_cast<ShardFamily>(f)) << "\": [";
    bool firstShard = true;
    for (std::size_t i = 0; i < kMaxShardsPerFamily; ++i) {
      const ShardStats& s = shards_[f][i];
      const std::int64_t acq = s.acquisitions.load(std::memory_order_relaxed);
      const std::int64_t hits = s.hits.load(std::memory_order_relaxed);
      const std::int64_t misses = s.misses.load(std::memory_order_relaxed);
      if (acq == 0 && hits == 0 && misses == 0) continue;  // quiet shard
      os << (firstShard ? "\n" : ",\n") << "      {\"index\": " << i
         << ", \"acquisitions\": " << acq
         << ", \"contended\": " << s.contended.load(std::memory_order_relaxed)
         << ", \"lock_wait_us\": " << s.lockWaitUs.load(std::memory_order_relaxed)
         << ", \"hits\": " << hits << ", \"misses\": " << misses
         << ", \"probe_steps\": " << s.probeSteps.load(std::memory_order_relaxed) << "}";
      firstShard = false;
    }
    os << (firstShard ? "" : "\n    ") << "]";
    firstFamily = false;
  }
  os << (firstFamily ? "" : "\n  ") << "},\n";

  os << "  \"lock_wait_us\": {";
  for (std::size_t f = 0; f < kShardFamilies; ++f) {
    os << (f == 0 ? "\n" : ",\n") << "    \"" << shardFamilyName(static_cast<ShardFamily>(f))
       << "\": ";
    os << lockWait_[f].toJson();
  }
  os << "\n  }\n}\n";
  return os.str();
}

Profiler& profiler() {
  static Profiler p;
  return p;
}

void ShardLock::lockContended(Profiler& p, ShardFamily family, std::size_t index) {
  ShardStats& s = p.shard(family, index);
  s.acquisitions.fetch_add(1, std::memory_order_relaxed);
  if (mu_.try_lock()) return;
  std::int64_t waited = 0;
  {
    Span span("lock.wait", "lock");
    const std::int64_t t0 = tracer().nowUs();
    mu_.lock();
    waited = tracer().nowUs() - t0;
  }
  s.contended.fetch_add(1, std::memory_order_relaxed);
  s.lockWaitUs.fetch_add(waited, std::memory_order_relaxed);
  p.lockWaitHistogram(family).observe(waited);
}

}  // namespace ad::obs
