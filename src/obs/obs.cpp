#include "obs/obs.hpp"

#include <algorithm>
#include <sstream>
#include <thread>

namespace ad::obs {

namespace {

/// Shard index of the calling thread: threads are numbered in registration
/// order, so a fixed pool of workers spreads evenly over the cells.
std::size_t threadShard() noexcept {
  static std::atomic<std::size_t> next{0};
  thread_local const std::size_t slot = next.fetch_add(1, std::memory_order_relaxed);
  return slot % Counter::kShards;
}

void appendEscaped(std::ostream& os, std::string_view s) {
  for (const char c : s) {
    switch (c) {
      case '"': os << "\\\""; break;
      case '\\': os << "\\\\"; break;
      case '\n': os << "\\n"; break;
      case '\t': os << "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          os << ' ';
        } else {
          os << c;
        }
    }
  }
}

}  // namespace

// ---------------------------------------------------------------------------
// Counter / Histogram
// ---------------------------------------------------------------------------

void Counter::add(std::int64_t n) noexcept {
  cells_[threadShard()].v.fetch_add(n, std::memory_order_relaxed);
}

std::int64_t Counter::value() const noexcept {
  std::int64_t total = 0;
  for (const Cell& c : cells_) total += c.v.load(std::memory_order_relaxed);
  return total;
}

void Counter::reset() noexcept {
  for (Cell& c : cells_) c.v.store(0, std::memory_order_relaxed);
}

std::int64_t Histogram::bucketBound(std::size_t i) noexcept {
  if (i + 1 >= kBuckets) return std::numeric_limits<std::int64_t>::max();
  return std::int64_t{1} << i;
}

void Histogram::observe(std::int64_t v) noexcept {
  if (v < 0) v = 0;
  std::size_t b = 0;
  while (b + 1 < kBuckets && v > bucketBound(b)) ++b;
  buckets_[b].fetch_add(1, std::memory_order_relaxed);
  count_.add(1);
  sum_.add(v);
  std::int64_t cur = min_.load(std::memory_order_relaxed);
  while (v < cur && !min_.compare_exchange_weak(cur, v, std::memory_order_relaxed)) {
  }
  cur = max_.load(std::memory_order_relaxed);
  while (v > cur && !max_.compare_exchange_weak(cur, v, std::memory_order_relaxed)) {
  }
}

std::int64_t Histogram::count() const noexcept { return count_.value(); }
std::int64_t Histogram::sum() const noexcept { return sum_.value(); }

std::int64_t Histogram::minValue() const noexcept {
  const std::int64_t m = min_.load(std::memory_order_relaxed);
  return m == std::numeric_limits<std::int64_t>::max() ? 0 : m;
}

std::int64_t Histogram::maxValue() const noexcept {
  const std::int64_t m = max_.load(std::memory_order_relaxed);
  return m == std::numeric_limits<std::int64_t>::min() ? 0 : m;
}

std::int64_t Histogram::bucketCount(std::size_t i) const noexcept {
  return i < kBuckets ? buckets_[i].load(std::memory_order_relaxed) : 0;
}

std::string Histogram::toJson() const {
  std::ostringstream os;
  os << "{\"count\": " << count() << ", \"sum\": " << sum() << ", \"min\": " << minValue()
     << ", \"max\": " << maxValue() << ", \"buckets\": [";
  // Only buckets up to the last non-empty one: keeps the document small
  // without losing information (trailing buckets are zero).
  std::size_t lastUsed = 0;
  for (std::size_t i = 0; i < kBuckets; ++i) {
    if (bucketCount(i) > 0) lastUsed = i;
  }
  for (std::size_t i = 0; i <= lastUsed; ++i) {
    os << (i == 0 ? "" : ", ") << "{\"le\": " << bucketBound(i)
       << ", \"count\": " << bucketCount(i) << "}";
  }
  os << "]}";
  return os.str();
}

void Histogram::reset() noexcept {
  for (auto& b : buckets_) b.store(0, std::memory_order_relaxed);
  count_.reset();
  sum_.reset();
  min_.store(std::numeric_limits<std::int64_t>::max(), std::memory_order_relaxed);
  max_.store(std::numeric_limits<std::int64_t>::min(), std::memory_order_relaxed);
}

// ---------------------------------------------------------------------------
// MetricsRegistry
// ---------------------------------------------------------------------------

Counter& MetricsRegistry::counter(std::string_view name) {
  std::lock_guard<std::mutex> lock(mu_);
  const auto it = counters_.find(name);
  if (it != counters_.end()) return *it->second;
  return *counters_.emplace(std::string(name), std::make_unique<Counter>()).first->second;
}

Gauge& MetricsRegistry::gauge(std::string_view name) {
  std::lock_guard<std::mutex> lock(mu_);
  const auto it = gauges_.find(name);
  if (it != gauges_.end()) return *it->second;
  return *gauges_.emplace(std::string(name), std::make_unique<Gauge>()).first->second;
}

Histogram& MetricsRegistry::histogram(std::string_view name) {
  std::lock_guard<std::mutex> lock(mu_);
  const auto it = histograms_.find(name);
  if (it != histograms_.end()) return *it->second;
  return *histograms_.emplace(std::string(name), std::make_unique<Histogram>()).first->second;
}

void MetricsRegistry::reset() {
  std::lock_guard<std::mutex> lock(mu_);
  for (auto& [name, c] : counters_) c->reset();
  for (auto& [name, g] : gauges_) g->reset();
  for (auto& [name, h] : histograms_) h->reset();
}

std::string MetricsRegistry::toJson() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::ostringstream os;
  os << "{\n  \"schema\": \"" << kMetricsSchema << "\",\n";
  os << "  \"counters\": {";
  bool first = true;
  for (const auto& [name, c] : counters_) {
    os << (first ? "\n" : ",\n") << "    \"";
    appendEscaped(os, name);
    os << "\": " << c->value();
    first = false;
  }
  os << (first ? "" : "\n  ") << "},\n";
  os << "  \"gauges\": {";
  first = true;
  for (const auto& [name, g] : gauges_) {
    os << (first ? "\n" : ",\n") << "    \"";
    appendEscaped(os, name);
    os << "\": " << g->value();
    first = false;
  }
  os << (first ? "" : "\n  ") << "},\n";
  os << "  \"histograms\": {";
  first = true;
  for (const auto& [name, h] : histograms_) {
    os << (first ? "\n" : ",\n") << "    \"";
    appendEscaped(os, name);
    os << "\": " << h->toJson();
    first = false;
  }
  os << (first ? "" : "\n  ") << "}\n}\n";
  return os.str();
}

MetricsRegistry& metrics() {
  static MetricsRegistry registry;
  return registry;
}

// ---------------------------------------------------------------------------
// Tracer / Span
// ---------------------------------------------------------------------------

namespace {

const std::thread::id kMainThread = std::this_thread::get_id();
std::atomic<std::int64_t> g_nextTid{1};

/// The calling thread's tracing state: its tid, its innermost open span and
/// its track in the process tracer (registered on first need, marked exited
/// when the thread ends so clear() can forget it).
struct ThreadState {
  std::int64_t tid = -1;
  std::string name;
  Span* open = nullptr;
  Tracer::Track* track = nullptr;
  ~ThreadState() {
    if (track != nullptr) track->exited.store(true, std::memory_order_release);
  }
};
thread_local ThreadState tlState;

}  // namespace

std::int64_t Tracer::nowUs() const {
  return std::chrono::duration_cast<std::chrono::microseconds>(
             std::chrono::steady_clock::now() - epoch_)
      .count();
}

std::int64_t Tracer::currentThreadId() noexcept {
  ThreadState& ts = tlState;
  if (ts.tid < 0) {
    ts.tid = std::this_thread::get_id() == kMainThread
                 ? 0
                 : g_nextTid.fetch_add(1, std::memory_order_relaxed);
  }
  return ts.tid;
}

Tracer::Track& Tracer::currentTrack() {
  ThreadState& ts = tlState;
  if (ts.track == nullptr) {
    auto track = std::make_unique<Track>();
    track->data.tid = currentThreadId();
    track->data.name = !ts.name.empty() ? ts.name : track->data.tid == 0 ? "main" : "thread";
    std::lock_guard<std::mutex> lock(mu_);
    ts.track = track.get();
    tracks_.push_back(std::move(track));
  }
  return *ts.track;
}

void Tracer::nameCurrentThread(std::string name) {
  ThreadState& ts = tlState;
  ts.name = std::move(name);
  if (ts.track == nullptr && !active()) return;
  Track& track = currentTrack();
  std::lock_guard<std::mutex> lock(mu_);
  track.data.name = ts.name;
}

void Tracer::registerCurrentThread() { (void)currentTrack(); }

void Tracer::fold(Span& span, std::int64_t endUs) {
  const std::int64_t dur = endUs - span.startUs_;
  tlState.open = span.parent_;
  if (span.parent_ != nullptr) span.parent_->childUs_ += dur;
  Track& track = currentTrack();
  {
    std::lock_guard<std::mutex> lock(track.mu);
    SpanStats& s = track.data.spans[span.name_][span.cat_];
    ++s.count;
    s.totalUs += dur;
    s.selfUs += dur - span.childUs_;
  }
  if (!enabled()) return;
  std::lock_guard<std::mutex> lock(mu_);
  events_.push_back(TraceEvent{std::move(span.name_), std::move(span.cat_), span.startUs_, dur,
                               track.data.tid});
}

std::vector<TraceEvent> Tracer::snapshot() const {
  std::lock_guard<std::mutex> lock(mu_);
  return events_;
}

std::vector<ThreadSpans> Tracer::statsByThread() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<ThreadSpans> out;
  out.reserve(tracks_.size());
  for (const auto& track : tracks_) {
    ThreadSpans& row = out.emplace_back();
    row.tid = track->data.tid;
    row.name = track->data.name;
    std::lock_guard<std::mutex> trackLock(track->mu);
    row.spans = track->data.spans;
  }
  return out;
}

std::map<std::string, SpanStats> Tracer::statsByName() const {
  std::map<std::string, SpanStats> out;
  for (const ThreadSpans& thread : statsByThread()) {
    for (const auto& [name, byCat] : thread.spans) {
      SpanStats& o = out[name];
      for (const auto& [cat, s] : byCat) {
        o.count += s.count;
        o.totalUs += s.totalUs;
        o.selfUs += s.selfUs;
      }
    }
  }
  return out;
}

void Tracer::clear() {
  std::lock_guard<std::mutex> lock(mu_);
  events_.clear();
  std::erase_if(tracks_, [](const std::unique_ptr<Track>& t) {
    return t->exited.load(std::memory_order_acquire);
  });
  for (const auto& track : tracks_) {
    std::lock_guard<std::mutex> trackLock(track->mu);
    track->data.spans.clear();
  }
}

std::string Tracer::toJson() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::ostringstream os;
  os << "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [\n";
  bool first = true;
  for (const auto& track : tracks_) {
    os << (first ? "" : ",\n")
       << "  {\"name\": \"thread_name\", \"ph\": \"M\", \"pid\": 1, \"tid\": " << track->data.tid
       << ", \"args\": {\"name\": \"";
    appendEscaped(os, track->data.name);
    os << "\"}}";
    first = false;
  }
  for (const auto& e : events_) {
    os << (first ? "" : ",\n") << "  {\"name\": \"";
    appendEscaped(os, e.name);
    os << "\", \"cat\": \"";
    appendEscaped(os, e.cat);
    os << "\", \"ph\": \"X\", \"ts\": " << e.ts << ", \"dur\": " << e.dur
       << ", \"pid\": 1, \"tid\": " << e.tid << "}";
    first = false;
  }
  os << "\n]}\n";
  return os.str();
}

Tracer& tracer() {
  static Tracer t;
  return t;
}

Span::Span(std::string_view name, std::string_view cat) {
  Tracer& t = tracer();
  if (!t.active()) return;
  active_ = true;
  name_.assign(name);
  cat_.assign(cat);
  parent_ = tlState.open;
  tlState.open = this;
  startUs_ = t.nowUs();
}

Span::~Span() {
  if (!active_) return;
  Tracer& t = tracer();
  t.fold(*this, t.nowUs());
}

}  // namespace ad::obs
