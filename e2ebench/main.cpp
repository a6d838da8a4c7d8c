// End-to-end benchmark of the analysis pipeline: three workloads, end-to-end
// metrics from untraced runs, per-layer metrics from a separate traced run
// that calls each layer itself (layers.hpp). Every operation's output is
// checked against expected.txt. See README.md in this directory.
//
//   e2ebench --workload paper_study|batch_cold|service_mix --seed N
//            --seconds S --trace 0|1 [--root DIR] [--expected FILE]
//            [--record FILE] [--t0-ns NS] [--setup-samples S,S,...]
//            [--trace-out FILE]
//   e2ebench --workload W [--root DIR] [--t0-ns NS] --setup-probe
//   e2ebench --self-test-percentiles
//
// The last line of standard output is one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// Exit status: 0 when every operation matched its expected result, 1 on any
// mismatch or failed check, 2 on bad usage or unreadable inputs.
#include <malloc.h>
#include <sys/resource.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <map>
#include <optional>
#include <random>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "codes/suite.hpp"
#include "driver/pipeline.hpp"
#include "driver/serialize.hpp"
#include "frontend/parser.hpp"
#include "layers.hpp"
#include "locality/analysis.hpp"
#include "obs/obs.hpp"
#include "service/server.hpp"
#include "support/thread_pool.hpp"
#include "symbolic/intern.hpp"
#include "workload_gen.hpp"

namespace {

using e2e::Clock;
using ad::driver::PipelineConfig;
using ad::driver::PipelineResult;
using ad::driver::ValidateMode;

double msBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

// ---------------------------------------------------------------------------
// Options
// ---------------------------------------------------------------------------

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string root = ".";
  std::string expectedPath;  ///< default <root>/e2ebench/expected.txt
  std::string recordPath;    ///< record expected results here instead of checking
  std::string traceOut;      ///< Chrome trace of the traced run
  std::optional<std::int64_t> startNs;  ///< launcher's steady-clock time at spawn
  /// setup_s of earlier --setup-probe processes; setup_s is the median of
  /// these and this process's own.
  std::vector<double> setupSamples;
  bool setupProbe = false;  ///< set up, print setup_s, exit before the first operation
  bool selfTestPercentiles = false;
};

[[noreturn]] void usage(const std::string& why) {
  std::cerr << "e2ebench: " << why << "\n"
            << "usage: e2ebench --workload paper_study|batch_cold|service_mix --seed N "
               "--seconds S --trace 0|1 [--root DIR] [--expected FILE] [--record FILE] "
               "[--t0-ns NS] [--setup-samples S,S,...] [--trace-out FILE]\n"
               "       e2ebench --workload W [--root DIR] [--t0-ns NS] --setup-probe\n"
               "       e2ebench --self-test-percentiles\n";
  std::exit(2);
}

Options parseOptions(int argc, char** argv) {
  Options o;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--self-test-percentiles") {
      o.selfTestPercentiles = true;
      continue;
    }
    if (arg == "--setup-probe") {
      o.setupProbe = true;
      continue;
    }
    if (i + 1 >= argc) usage("missing value for " + arg);
    const std::string v = argv[++i];
    try {
      if (arg == "--workload") o.workload = v;
      else if (arg == "--seed") o.seed = std::stoull(v);
      else if (arg == "--seconds") o.seconds = std::stod(v);
      else if (arg == "--trace") o.trace = v == "1";
      else if (arg == "--root") o.root = v;
      else if (arg == "--expected") o.expectedPath = v;
      else if (arg == "--record") o.recordPath = v;
      else if (arg == "--t0-ns") o.startNs = std::stoll(v);
      else if (arg == "--setup-samples") {
        std::istringstream in(v);
        for (std::string item; std::getline(in, item, ',');) {
          o.setupSamples.push_back(std::stod(item));
        }
      }
      else if (arg == "--trace-out") o.traceOut = v;
      else usage("unknown option " + arg);
    } catch (const std::logic_error&) {
      usage("bad value for " + arg + ": " + v);
    }
  }
  if (o.selfTestPercentiles) return o;
  if (o.workload != "paper_study" && o.workload != "batch_cold" && o.workload != "service_mix") {
    usage("unknown workload '" + o.workload + "'");
  }
  if (!(o.seconds > 0.0)) usage("--seconds must be positive");
  if (o.expectedPath.empty()) o.expectedPath = o.root + "/e2ebench/expected.txt";
  if (o.traceOut.empty()) {
    o.traceOut = o.root + "/.bench_build/e2ebench/traces/" + o.workload + "-seed" +
                 std::to_string(o.seed) + ".json";
  }
  return o;
}

// ---------------------------------------------------------------------------
// Statistics
// ---------------------------------------------------------------------------

/// Nearest-rank percentile plus the number of samples ranked above it. A tail
/// percentile is reported only when at least kTailSamples lie above it.
struct Percentile {
  double value = 0.0;
  std::size_t above = 0;
  std::size_t samples = 0;
};

constexpr std::size_t kTailSamples = 10;

Percentile percentile(std::vector<double> samples, double p) {
  Percentile out;
  out.samples = samples.size();
  if (samples.empty()) return out;
  std::sort(samples.begin(), samples.end());
  const auto n = samples.size();
  auto rank = static_cast<std::size_t>(std::ceil(p / 100.0 * static_cast<double>(n)));
  rank = std::clamp<std::size_t>(rank, 1, n);
  out.value = samples[rank - 1];
  out.above = n - rank;
  return out;
}

bool tailReported(const Percentile& p) { return p.above >= kTailSamples; }

double median(std::vector<double> v) { return percentile(std::move(v), 50.0).value; }

/// Highest of p99 / p90 / p50 that has enough samples above it.
std::pair<double, Percentile> tailPercentile(const std::vector<double>& samples) {
  for (const double p : {99.0, 90.0}) {
    const Percentile pc = percentile(samples, p);
    if (tailReported(pc)) return {p, pc};
  }
  return {50.0, percentile(samples, 50.0)};
}

// ---------------------------------------------------------------------------
// Expected results
// ---------------------------------------------------------------------------

std::string digestOf(const std::string& text) {
  std::uint64_t h = 1469598103934665603ull;  // FNV-1a 64
  for (const unsigned char c : text) {
    h ^= c;
    h *= 1099511628211ull;
  }
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(h));
  return buf;
}

std::string fullDigits(double v) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

/// One operation's observable result. Efficiencies are present only where
/// the operation replays the plan on the DSM model and exposes the result.
struct Outcome {
  std::string key;
  std::string digest = "-";  ///< FNV-1a of driver::serializeGolden, "-" without a golden
  std::optional<double> planned;
  std::optional<double> naive;
  std::string verdict;  ///< "ok", "degraded", "error:<code>", "cancelled", "shed", ...
  [[nodiscard]] bool ok() const { return verdict == "ok"; }
};

struct ExpectedEntry {
  std::string digest;
  std::string planned;
  std::string naive;
  std::string verdict;
};

bool sameEfficiency(const std::string& expected, const std::optional<double>& got) {
  if (expected == "-") return !got.has_value();
  if (!got) return false;
  const double want = std::stod(expected);
  return std::abs(want - *got) <= 1e-9 * std::max(1.0, std::abs(want));
}

/// Compares every operation with expected.txt (or records it with --record).
class Checker {
 public:
  Checker(const Options& opts) : recording_(!opts.recordPath.empty()) {
    const std::string path = recording_ ? opts.recordPath : opts.expectedPath;
    std::ifstream in(path);
    if (!in) {
      if (recording_) return;  // first recording creates the file
      std::cerr << "e2ebench: cannot read expected results " << path << "\n";
      std::exit(2);
    }
    std::string line;
    while (std::getline(in, line)) {
      if (line.empty() || line[0] == '#') continue;
      std::istringstream ls(line);
      std::string key;
      ExpectedEntry e;
      if (!(ls >> key >> e.digest >> e.planned >> e.naive >> e.verdict)) {
        std::cerr << "e2ebench: malformed expected line: " << line << "\n";
        std::exit(2);
      }
      expected_[key] = e;
    }
  }

  /// True when `o` matches its expected entry. A mismatch is counted and the
  /// operation must then not be counted as a success by the caller.
  bool check(const Outcome& o) {
    ExpectedEntry got{o.digest, o.planned ? fullDigits(*o.planned) : "-",
                      o.naive ? fullDigits(*o.naive) : "-", o.verdict};
    if (recording_) {
      const auto [it, inserted] = recorded_.emplace(o.key, got);
      if (inserted || (it->second.digest == got.digest && it->second.verdict == got.verdict &&
                       sameEfficiency(it->second.planned, o.planned))) {
        return true;
      }
      return fail(o.key + ": non-deterministic result while recording");
    }
    const auto it = expected_.find(o.key);
    if (it == expected_.end()) return fail(o.key + ": no expected result recorded");
    const ExpectedEntry& want = it->second;
    if (want.digest != got.digest) {
      return fail(o.key + ": golden digest " + got.digest + " != expected " + want.digest);
    }
    if (want.verdict != got.verdict) {
      return fail(o.key + ": verdict " + got.verdict + " != expected " + want.verdict);
    }
    if (!sameEfficiency(want.planned, o.planned) || !sameEfficiency(want.naive, o.naive)) {
      return fail(o.key + ": efficiencies " + got.planned + "/" + got.naive + " != expected " +
                  want.planned + "/" + want.naive);
    }
    return true;
  }

  /// A failed benchmark-level check that is not tied to one expected entry.
  bool fail(const std::string& what) {
    ++failures_;
    std::cerr << "e2ebench: MISMATCH " << what << "\n";
    return false;
  }

  [[nodiscard]] std::int64_t failures() const { return failures_; }

  /// --record: replaces this workload's entries in the file, keeps the rest.
  void writeRecord(const std::string& path, const std::string& workload) const {
    std::map<std::string, ExpectedEntry> all = expected_;
    for (auto it = all.begin(); it != all.end();) {
      it = it->first.rfind(workload + "/", 0) == 0 ? all.erase(it) : std::next(it);
    }
    for (const auto& [k, v] : recorded_) all[k] = v;
    std::ofstream out(path);
    out << "# e2ebench expected results: one line per operation key.\n"
           "# key  golden-digest(FNV-1a 64 of driver::serializeGolden)  planned-eff  "
           "naive-eff  verdict\n";
    for (const auto& [k, v] : all) {
      out << k << " " << v.digest << " " << v.planned << " " << v.naive << " " << v.verdict
          << "\n";
    }
  }

 private:
  bool recording_;
  std::map<std::string, ExpectedEntry> expected_;
  std::map<std::string, ExpectedEntry> recorded_;
  std::int64_t failures_ = 0;
};

// ---------------------------------------------------------------------------
// Shared helpers
// ---------------------------------------------------------------------------

/// "Cold" means cold: the interned-expression arena (and with it the proof
/// memo) and the phase-array memo start empty.
void clearCaches(Checker& checker) {
  ad::sym::ExprIntern::global().clear();
  ad::loc::clearPhaseArrayMemo();
  if (ad::sym::ExprIntern::global().size() != 0 ||
      ad::obs::metrics().gauge("ad.intern.exprs").value() != 0) {
    checker.fail("ad.intern.exprs did not restart from empty after clear()");
  }
}

/// Seeded Fisher-Yates (std::shuffle's algorithm is implementation-defined).
template <typename T>
void shuffleSeeded(std::vector<T>& v, std::mt19937_64& rng) {
  for (std::size_t i = v.size(); i > 1; --i) {
    const std::size_t j = static_cast<std::size_t>(rng() % i);
    std::swap(v[i - 1], v[j]);
  }
}

std::string verdictOf(const PipelineResult& r) {
  if (!r.symbolicAgrees() || (r.localityCheck && !r.localityCheck->ok())) {
    return "error:validation";
  }
  return r.degraded() ? "degraded" : "ok";
}

std::size_t nproc() { return ad::support::ThreadPool::hardwareConcurrency(); }

/// Program counters the per-layer metrics are derived from, read as deltas.
enum Counter {
  kProofHits,
  kProofMisses,
  kPhaseHits,
  kPhaseMisses,
  kBarrierWaitUs,
  kPoolSteals,
  kPoolIdleUs,
  kSymvalClosed,
  kSymvalEnumerated,
  kGreedyFallbacks,
  kCounterCount
};
constexpr const char* kCounterNames[kCounterCount] = {
    "ad.intern.proof_hits",        "ad.intern.proof_misses",       "ad.loc.phase_hits",
    "ad.loc.phase_misses",         "ad.sim.barrier_wait_us",       "ad.pool.steals",
    "ad.pool.idle_us",             "ad.symval.regions_closed_form", "ad.symval.regions_enumerated",
    "ad.ilp.greedy_fallbacks"};
using Counters = std::array<std::int64_t, kCounterCount>;

Counters countersNow() {
  Counters c{};
  for (int i = 0; i < kCounterCount; ++i) {
    c[i] = ad::obs::metrics().counter(kCounterNames[i]).value();
  }
  return c;
}

/// Adds the change of every counter since `before` to `into`.
void addDelta(Counters& into, const Counters& before) {
  const Counters now = countersNow();
  for (int i = 0; i < kCounterCount; ++i) into[i] += now[i] - before[i];
}

double ratio(std::int64_t num, std::int64_t den) {
  return den == 0 ? 0.0 : static_cast<double>(num) / static_cast<double>(den);
}

/// Everything a workload run reports; main() turns it into the JSON line.
struct RunResult {
  std::int64_t attempted = 0;
  std::int64_t okOps = 0;
  std::vector<double> latenciesMs;
  /// Operations per second of each workload pass (six-code pass, batch,
  /// deck); throughput_rps is their median, so a burst of outside load that
  /// slows one pass does not move it.
  std::vector<double> passRates;
  double setupSeconds = 0.0;  ///< process start to the first timed operation
  std::optional<double> planEfficiency;  ///< paper_study: lowest planned efficiency
  std::vector<std::pair<std::string, double>> layers;  ///< traced run, in print order
  std::vector<std::string> notes;                      ///< human-readable extras
};

/// Per-layer accounting of a traced run.
struct LayerTally {
  e2e::SpanLog log;
  std::int64_t nextOp = 1;
  Counters counters{};      ///< deltas over the untraced operations of the traced run
  Counters replayCounters{};  ///< deltas over the layer-by-layer replays
  std::int64_t dsmAccesses = 0;
  std::int64_t commSchedules = 0;
  std::int64_t commWords = 0;
  double tracedMs = 0.0;    ///< wall of the replayed operations
  double untracedMs = 0.0;  ///< wall of the same operations run by the program itself
  std::int64_t arenaBytes = 0;
  std::vector<double> queueMs, runMs;  ///< service responses
  std::optional<double> minPlanned;
  double batchJobs1Ms = 0.0, batchJobsNMs = 0.0;

  /// Runs `body(op)` as one traced operation under a root span `name`; the
  /// body calls the layers (parse, runLayered) and returns the result.
  template <typename Body>
  PipelineResult replay(const std::string& name, Body&& body) {
    const Counters before = countersNow();
    const auto t0 = Clock::now();
    const std::int64_t op = nextOp++;
    PipelineResult r = log.time(name, op, [&] { return body(op); });
    tracedMs += msBetween(t0, Clock::now());
    addDelta(replayCounters, before);
    for (const auto* sim : {&r.planned, &r.naive}) {
      for (const auto& ph : sim->phases) dsmAccesses += ph.localAccesses + ph.remoteAccesses;
    }
    commSchedules += static_cast<std::int64_t>(r.schedules.size());
    for (const auto& s : r.schedules) commWords += s.totalWords();
    if (!r.planned.phases.empty()) {
      const double eff = r.plannedEfficiency();
      minPlanned = minPlanned ? std::min(*minPlanned, eff) : eff;
    }
    return r;
  }

  void noteArena() {
    arenaBytes = std::max<std::int64_t>(arenaBytes,
                                        ad::obs::metrics().gauge("ad.intern.bytes").value());
  }
};

/// Layer totals of a traced run: each operation's direct child spans by
/// name, plus driver.other (operation wall minus its layer spans). Fails the
/// run when a span is malformed, escapes its parent, or the layer spans of an
/// operation add up to more than its wall time.
std::map<std::string, double> layerTotals(const LayerTally& t, Checker& checker) {
  std::map<std::string, std::int64_t> ns;
  std::map<std::int64_t, std::pair<std::int64_t, std::int64_t>> byOp;  // wall ns, layer ns
  const auto& spans = t.log.spans();
  for (const auto& s : spans) {
    if (s.name.empty() || s.endNs < s.startNs || s.op <= 0) {
      checker.fail("malformed span " + s.name);
    }
    if (s.parent < 0) {
      byOp[s.op].first = s.endNs - s.startNs;
      continue;
    }
    const auto& parent = spans[static_cast<std::size_t>(s.parent)];
    if (parent.op != s.op || s.startNs < parent.startNs || s.endNs > parent.endNs) {
      checker.fail("span " + s.name + " escapes its parent " + parent.name);
    }
    if (parent.parent < 0) {
      byOp[s.op].second += s.endNs - s.startNs;
      ns[s.name] += s.endNs - s.startNs;
    }
  }
  for (const auto& [op, wl] : byOp) {
    if (wl.second > wl.first) {
      checker.fail("layer spans of op " + std::to_string(op) + " exceed its wall time");
    }
    ns["driver.other"] += wl.first - wl.second;
  }
  std::map<std::string, double> ms;
  for (const auto& [name, v] : ns) ms[name] = static_cast<double>(v) / 1e6;
  return ms;
}

void writeChromeTrace(const LayerTally& t, const std::string& path) {
  std::error_code ec;
  std::filesystem::create_directories(std::filesystem::path(path).parent_path(), ec);
  std::ofstream out(path);
  out << t.log.chromeJson();
  if (!out) std::cerr << "e2ebench: could not write trace " << path << "\n";
}

/// The per-layer metrics, all normalised per workload pass: span and result
/// tallies by the passes replayed layer by layer, counter deltas by the
/// passes of untraced operations they were taken over.
std::vector<std::pair<std::string, double>> layerMetrics(const LayerTally& t, Checker& checker,
                                                         double replayPasses,
                                                         double untracedPasses) {
  const std::map<std::string, double> ms = layerTotals(t, checker);
  auto per = [replayPasses](double v) { return v / replayPasses; };
  auto perUntraced = [untracedPasses](double v) { return v / untracedPasses; };
  auto layer = [&](const char* name) { return per(ms.count(name) ? ms.at(name) : 0.0); };
  const Counters& c = t.counters;
  const double dsmMs = layer("dsm.model") + layer("dsm.baseline");
  const double accessesPerPass = per(static_cast<double>(t.dsmAccesses));
  return {
      {"frontend.parse_ms", layer("frontend.parse")},
      {"lcg.build_ms", layer("lcg.build")},
      {"ilp.build_ms", layer("ilp.build")},
      {"ilp.solve_ms", layer("ilp.solve")},
      {"driver.plan_ms", layer("driver.plan")},
      {"comm.generate_ms", layer("comm.generate")},
      {"dsm.model_ms", layer("dsm.model")},
      {"dsm.baseline_ms", layer("dsm.baseline")},
      {"dsm.ns_per_access", accessesPerPass == 0 ? 0.0 : dsmMs * 1e6 / accessesPerPass},
      {"sim.trace_ms", layer("sim.trace")},
      {"locality.symval_ms", layer("locality.symval")},
      {"dsm.validate_ms", layer("dsm.validate")},
      {"driver.other_ms", layer("driver.other")},
      {"locality.symval_enumerated_ratio",
       ratio(c[kSymvalEnumerated], c[kSymvalEnumerated] + c[kSymvalClosed])},
      {"sim.barrier_wait_ms", perUntraced(static_cast<double>(c[kBarrierWaitUs]) / 1000.0)},
      {"symbolic.proof_hit_rate", ratio(c[kProofHits], c[kProofHits] + c[kProofMisses])},
      {"locality.phase_memo_hit_rate", ratio(c[kPhaseHits], c[kPhaseHits] + c[kPhaseMisses])},
      {"symbolic.arena_bytes", static_cast<double>(t.arenaBytes)},
      {"driver.batch_jobs1_ms", perUntraced(t.batchJobs1Ms)},
      {"support.pool_speedup", t.batchJobsNMs > 0 ? t.batchJobs1Ms / t.batchJobsNMs : 0.0},
      {"support.pool_steals", perUntraced(static_cast<double>(c[kPoolSteals]))},
      {"support.pool_idle_ms", perUntraced(static_cast<double>(c[kPoolIdleUs]) / 1000.0)},
      {"service.queue_p50_ms", percentile(t.queueMs, 50).value},
      {"service.queue_tail_ms", tailPercentile(t.queueMs).second.value},
      {"service.run_p50_ms", percentile(t.runMs, 50).value},
      {"service.run_tail_ms", tailPercentile(t.runMs).second.value},
      {"dsm.accesses", accessesPerPass},
      {"comm.schedules", per(static_cast<double>(t.commSchedules))},
      {"comm.words", per(static_cast<double>(t.commWords))},
      {"ilp.greedy_fallbacks", per(static_cast<double>(t.replayCounters[kGreedyFallbacks]))},
      {"dsm.plan_efficiency_min", t.minPlanned.value_or(0.0)},
      {"trace_overhead_pct",
       t.untracedMs > 0 ? (t.tracedMs - t.untracedMs) / t.untracedMs * 100.0 : 0.0},
  };
}

/// Seconds from process start until now, the first timed operation. Process
/// start is the launcher's steady-clock time at spawn (--t0-ns), which is the
/// same clock as Python's time.monotonic_ns(); without it, entry to main().
double secondsSinceStart(const Options& opts, Clock::time_point mainEntry) {
  const Clock::time_point start =
      opts.startNs ? Clock::time_point(std::chrono::nanoseconds(*opts.startNs)) : mainEntry;
  return std::chrono::duration<double>(Clock::now() - start).count();
}

// ---------------------------------------------------------------------------
// paper_study: the six 1999 codes at their study sizes on 64 PEs
// ---------------------------------------------------------------------------

struct StudyCode {
  std::string name;
  ad::ir::Program program;
  PipelineConfig config;
};

std::vector<StudyCode> buildStudy() {
  static const std::vector<std::string> kPaperCodes = {"tfft2", "swim",  "tomcatv",
                                                       "hydro2d", "mgrid", "trfd"};
  std::vector<StudyCode> codes;
  for (const auto& info : ad::codes::benchmarkSuite()) {
    if (std::find(kPaperCodes.begin(), kPaperCodes.end(), info.name) == kPaperCodes.end()) {
      continue;
    }
    StudyCode c{info.name, info.build(), {}};
    c.config.params = ad::codes::bindParams(c.program, info.studyParams);
    c.config.processors = 64;
    c.config.validate = ValidateMode::kSymbolic;
    codes.push_back(std::move(c));
  }
  if (codes.size() != kPaperCodes.size()) throw std::runtime_error("paper codes missing");
  return codes;
}

Outcome studyOutcome(const StudyCode& c, const PipelineResult& r) {
  Outcome o;
  o.key = "paper_study/" + c.name + "/H64";
  o.digest = digestOf(ad::driver::serializeGolden(r, c.program));
  o.planned = r.plannedEfficiency();
  o.naive = r.naiveEfficiency();
  o.verdict = verdictOf(r);
  return o;
}

RunResult runPaperStudy(const Options& opts, Checker& checker, Clock::time_point mainEntry,
                        LayerTally* traced) {
  RunResult rr;
  const std::vector<StudyCode> codes = buildStudy();
  rr.setupSeconds = secondsSinceStart(opts, mainEntry);
  if (opts.setupProbe) return rr;
  std::mt19937_64 rng(opts.seed);
  std::vector<std::size_t> order(codes.size());
  double minPlanned = 2.0;
  const auto begin = Clock::now();
  int passes = 0;
  const bool onePass = !opts.recordPath.empty();
  while (passes == 0 || (!onePass && msBetween(begin, Clock::now()) < opts.seconds * 1000.0)) {
    for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
    shuffleSeeded(order, rng);
    double passMs = 0.0;
    for (const std::size_t i : order) {
      const StudyCode& c = codes[i];
      ++rr.attempted;
      if (traced != nullptr) {
        clearCaches(checker);
        const PipelineResult layered = traced->replay(c.name, [&](std::int64_t op) {
          return e2e::runLayered(c.program, c.config, traced->log, op);
        });
        clearCaches(checker);
        const Counters before = countersNow();
        const auto t0 = Clock::now();
        const PipelineResult reference = ad::driver::analyzeAndSimulate(c.program, c.config);
        traced->untracedMs += msBetween(t0, Clock::now());
        addDelta(traced->counters, before);
        traced->noteArena();
        const Outcome o = studyOutcome(c, layered);
        if (o.digest != studyOutcome(c, reference).digest) {
          checker.fail(c.name + ": layer-by-layer golden differs from analyzeAndSimulate");
        }
        if (checker.check(o) && o.ok()) ++rr.okOps;
        continue;
      }
      // Freed heap goes back to the OS between requests, so peak RSS is that
      // of the largest request rather than of the seeded request order.
      malloc_trim(0);
      clearCaches(checker);
      const auto t0 = Clock::now();
      const PipelineResult r = ad::driver::analyzeAndSimulate(c.program, c.config);
      const double ms = msBetween(t0, Clock::now());
      passMs += ms;
      rr.latenciesMs.push_back(ms);
      const Outcome o = studyOutcome(c, r);
      const bool matched = checker.check(o);
      if (matched && o.ok()) ++rr.okOps;
      minPlanned = std::min(minPlanned, *o.planned);
      // The paper's bar: over 70% parallel efficiency on 64 PEs.
      if (!(*o.planned > 0.70)) {
        checker.fail(c.name + ": planned efficiency " + fullDigits(*o.planned) +
                     " is not above 0.70 at H=64");
      }
    }
    if (passMs > 0) rr.passRates.push_back(static_cast<double>(order.size()) * 1000.0 / passMs);
    ++passes;
  }
  if (traced == nullptr) rr.planEfficiency = minPlanned;
  if (traced != nullptr) rr.layers = layerMetrics(*traced, checker, passes, passes);
  rr.notes.push_back("passes: " + std::to_string(passes) + " x " +
                     std::to_string(codes.size()) + " codes");
  return rr;
}

// ---------------------------------------------------------------------------
// batch_cold: the 174-config analysis corpus as one cold analyzeBatch
// ---------------------------------------------------------------------------

struct BatchConfig {
  std::string key;
  int program = -1;  ///< index into the suite programs, or -1 for a generated source
  int source = -1;   ///< index into the generated sources
  std::map<std::string, std::int64_t> params;
  std::int64_t processors = 1;
};

struct BatchCorpus {
  std::vector<ad::ir::Program> suite;
  std::vector<std::string> sources;  ///< generated ADL, re-parsed on every batch
  std::vector<BatchConfig> configs;
};

/// The corpus of bench/analysis_scaling: suite x H{1,4,8}, kernel pow2
/// bindings x H{1,4,8}, 114 generated stencils at H=4, 6 pow2 butterflies x
/// H{1,4,8}.
BatchCorpus buildBatchCorpus() {
  BatchCorpus c;
  const auto& suite = ad::codes::benchmarkSuite();
  for (const auto& info : suite) c.suite.push_back(info.build());
  auto add = [&](std::string label, int program, int source,
                 std::map<std::string, std::int64_t> params, std::int64_t h) {
    c.configs.push_back({"batch_cold/" + label + "/H" + std::to_string(h), program, source,
                         std::move(params), h});
  };
  for (const std::int64_t h : {1, 4, 8}) {
    for (std::size_t i = 0; i < suite.size(); ++i) {
      add(suite[i].name, static_cast<int>(i), -1, suite[i].smallParams, h);
    }
  }
  for (const std::int64_t h : {1, 4, 8}) {
    for (std::size_t i = 0; i < suite.size(); ++i) {
      const auto& n = suite[i].name;
      if (n != "matmul" && n != "conv2d" && n != "attention" && n != "stencil_tt") continue;
      add(n + "_pow2", static_cast<int>(i), -1, suite[i].simParams, h);
    }
  }
  for (std::size_t f = 0; f < 6; ++f) {
    for (std::size_t v = 0; v < 19; ++v) {
      c.sources.push_back(ad::bench::generateStencilSource(f, v));
      add(ad::bench::generatedLabel(f, v), -1, static_cast<int>(c.sources.size()) - 1,
          {{"N", 64}}, 4);
    }
  }
  const int firstPow2 = static_cast<int>(c.sources.size());
  for (std::size_t v = 0; v < ad::bench::kPow2Variants; ++v) {
    c.sources.push_back(ad::bench::generatePow2Source(v));
  }
  for (const std::int64_t h : {1, 4, 8}) {
    for (std::size_t v = 0; v < ad::bench::kPow2Variants; ++v) {
      add(ad::bench::pow2Label(v), -1, firstPow2 + static_cast<int>(v), {{"N", 64}}, h);
    }
  }
  return c;
}

/// One batch's inputs: freshly parsed generated programs plus batch items in
/// the seeded order.
struct PreparedBatch {
  std::vector<ad::ir::Program> parsed;
  std::vector<const BatchConfig*> order;
  std::vector<ad::driver::BatchItem> items;
};

PipelineConfig analysisConfig(const ad::ir::Program& program, const BatchConfig& cfg) {
  PipelineConfig config;
  config.params = ad::codes::bindParams(program, cfg.params);
  config.processors = cfg.processors;
  config.simulatePlan = false;
  config.simulateBaseline = false;
  return config;
}

void prepareBatch(const BatchCorpus& c, const std::vector<const BatchConfig*>& order,
                  PreparedBatch& b) {
  b.parsed.clear();
  b.parsed.reserve(c.sources.size());
  for (const auto& src : c.sources) b.parsed.push_back(ad::frontend::parseProgram(src));
  b.order = order;
  b.items.clear();
  for (const BatchConfig* cfg : order) {
    ad::driver::BatchItem item;
    item.program = cfg->program >= 0 ? &c.suite[static_cast<std::size_t>(cfg->program)]
                                     : &b.parsed[static_cast<std::size_t>(cfg->source)];
    item.label = cfg->key;
    item.config = analysisConfig(*item.program, *cfg);
    b.items.push_back(std::move(item));
  }
}

/// The program of one config run alone (not in a batch): re-parsed with
/// `parse` for a generated source, the prebuilt suite program otherwise.
struct SingleConfig {
  std::optional<ad::ir::Program> parsed;
  const ad::ir::Program* suite = nullptr;
  [[nodiscard]] const ad::ir::Program& program() const { return parsed ? *parsed : *suite; }
};

template <typename Parse>
SingleConfig singleProgram(const BatchCorpus& c, const BatchConfig& cfg, Parse&& parse) {
  SingleConfig one;
  if (cfg.source >= 0) {
    one.parsed = parse(c.sources[static_cast<std::size_t>(cfg.source)]);
  } else {
    one.suite = &c.suite[static_cast<std::size_t>(cfg.program)];
  }
  return one;
}

Outcome batchOutcome(const ad::driver::BatchItem& item,
                     const ad::Expected<PipelineResult>& r) {
  Outcome o;
  o.key = item.label;
  if (!r.has_value()) {
    o.verdict = std::string("error:") + ad::errorCodeName(r.status().code());
    return o;
  }
  o.digest = digestOf(ad::driver::serializeGolden(*r, *item.program));
  o.verdict = verdictOf(*r);
  return o;
}

/// Checks a batch's results; returns how many were ok and matched.
std::int64_t checkBatch(const PreparedBatch& b,
                        const std::vector<ad::Expected<PipelineResult>>& results,
                        Checker& checker, std::vector<std::string>* digests = nullptr) {
  std::int64_t ok = 0;
  for (std::size_t i = 0; i < b.items.size(); ++i) {
    const Outcome o = batchOutcome(b.items[i], results[i]);
    if (digests != nullptr) digests->push_back(o.digest);
    if (checker.check(o) && o.ok()) ++ok;
  }
  return ok;
}

RunResult runBatchCold(const Options& opts, Checker& checker, Clock::time_point mainEntry,
                       LayerTally* traced) {
  RunResult rr;
  const BatchCorpus corpus = buildBatchCorpus();
  rr.setupSeconds = secondsSinceStart(opts, mainEntry);
  if (opts.setupProbe) return rr;
  // The timed batch runs on one worker: on a shared host a jobs=nproc batch
  // waits for its slowest worker, which made the run-to-run spread more than
  // twice as wide, while the pool buys nothing on this corpus today. The
  // traced run still measures the jobs=nproc batch (support.pool_* metrics).
  constexpr std::size_t kTimedJobs = 1;
  const std::size_t jobs = nproc();
  std::mt19937_64 rng(opts.seed);
  std::vector<const BatchConfig*> order;
  for (const auto& cfg : corpus.configs) order.push_back(&cfg);

  PreparedBatch batch;
  const auto begin = Clock::now();
  int passes = 0;
  const bool onePass = !opts.recordPath.empty();
  while (passes == 0 || (!onePass && msBetween(begin, Clock::now()) < opts.seconds * 1000.0)) {
    shuffleSeeded(order, rng);
    if (traced == nullptr) {
      clearCaches(checker);
      const auto p0 = Clock::now();
      prepareBatch(corpus, order, batch);
      const auto t0 = Clock::now();
      const auto results = ad::driver::analyzeBatch(batch.items, kTimedJobs);
      const auto t1 = Clock::now();
      rr.passRates.push_back(static_cast<double>(order.size()) * 1000.0 / msBetween(p0, t1));
      rr.latenciesMs.push_back(msBetween(t0, t1));
      rr.attempted += static_cast<std::int64_t>(batch.items.size());
      rr.okOps += checkBatch(batch, results, checker);
      ++passes;
      continue;
    }
    // Traced pass: cold jobs=1 and jobs=nproc batches (untraced), then the
    // same corpus replayed layer by layer, serially and cold.
    const auto coldBatch = [&](std::size_t j) {
      clearCaches(checker);
      prepareBatch(corpus, order, batch);
      return ad::driver::analyzeBatch(batch.items, j);
    };
    {
      const auto t0 = Clock::now();
      const auto serial = coldBatch(1);
      const double ms = msBetween(t0, Clock::now());
      traced->batchJobs1Ms += ms;
      checkBatch(batch, serial, checker);
    }
    std::vector<std::string> batchDigests;
    {
      const Counters before = countersNow();
      const auto t0 = Clock::now();
      const auto parallel = coldBatch(jobs);
      traced->batchJobsNMs += msBetween(t0, Clock::now());
      addDelta(traced->counters, before);
      traced->noteArena();
      rr.okOps += checkBatch(batch, parallel, checker, &batchDigests);
      rr.attempted += static_cast<std::int64_t>(batch.items.size());
    }
    // Serial cold replay, then its untraced twin: the same configs, serial
    // and cold, through the program's own analyzeAndSimulate.
    clearCaches(checker);
    std::vector<std::string> replayDigests;
    for (const BatchConfig* cfg : order) {
      SingleConfig one;
      const PipelineResult r = traced->replay(cfg->key, [&](std::int64_t op) {
        one = singleProgram(corpus, *cfg, [&](const std::string& src) {
          return traced->log.time("frontend.parse", op,
                                  [&] { return ad::frontend::parseProgram(src); });
        });
        return e2e::runLayered(one.program(), analysisConfig(one.program(), *cfg), traced->log,
                               op);
      });
      Outcome o;
      o.key = cfg->key;
      o.digest = digestOf(ad::driver::serializeGolden(r, one.program()));
      o.verdict = verdictOf(r);
      replayDigests.push_back(o.digest);
      checker.check(o);
    }
    clearCaches(checker);
    for (std::size_t i = 0; i < order.size(); ++i) {
      const BatchConfig& cfg = *order[i];
      const auto t0 = Clock::now();
      const SingleConfig one = singleProgram(corpus, cfg, ad::frontend::parseProgram);
      const PipelineResult reference =
          ad::driver::analyzeAndSimulate(one.program(), analysisConfig(one.program(), cfg));
      traced->untracedMs += msBetween(t0, Clock::now());
      if (digestOf(ad::driver::serializeGolden(reference, one.program())) != replayDigests[i]) {
        checker.fail(cfg.key + ": layer-by-layer golden differs from analyzeAndSimulate");
      }
      if (replayDigests[i] != batchDigests[i]) {
        checker.fail(cfg.key + ": layer-by-layer golden differs from analyzeBatch");
      }
    }
    ++passes;
  }
  if (traced != nullptr) rr.layers = layerMetrics(*traced, checker, passes, passes);
  rr.notes.push_back("batches: " + std::to_string(passes) + " x " +
                     std::to_string(corpus.configs.size()) + " configs at jobs=" +
                     std::to_string(traced ? jobs : kTimedJobs));
  return rr;
}

// ---------------------------------------------------------------------------
// service_mix: an in-process service under a closed loop
// ---------------------------------------------------------------------------

struct MixSource {
  std::string label;
  std::string text;
  std::map<std::string, std::int64_t> params;
};

/// Bindings from an example's header run line
/// ("#   ./build/examples/auto_distribute examples/x.adl N=14 K=3 H=8"),
/// without the processor count.
std::map<std::string, std::int64_t> headerBindings(const std::string& text) {
  std::map<std::string, std::int64_t> out;
  std::istringstream in(text);
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("#", 0) != 0 || line.find("auto_distribute") == std::string::npos) continue;
    std::istringstream words(line.substr(line.find(".adl") + 4));
    std::string w;
    while (words >> w) {
      const auto eq = w.find('=');
      if (eq == std::string::npos || w.substr(0, eq) == "H") continue;
      out[w.substr(0, eq)] = std::stoll(w.substr(eq + 1));
    }
    break;
  }
  return out;
}

std::vector<MixSource> buildMixSources(const std::string& root) {
  std::vector<MixSource> out;
  for (const char* name : {"adi", "attention", "conv2d", "matmul", "stencil_tt"}) {
    const std::string path = root + "/examples/" + name + ".adl";
    std::ifstream in(path);
    if (!in) throw std::runtime_error("cannot read " + path);
    std::stringstream ss;
    ss << in.rdbuf();
    MixSource s{name, ss.str(), {}};
    s.params = headerBindings(s.text);
    if (s.params.empty()) throw std::runtime_error("no bindings in the header of " + path);
    out.push_back(std::move(s));
  }
  for (std::size_t f = 0; f < 6; ++f) {
    for (std::size_t v = 0; v < 8; ++v) {
      out.push_back({ad::bench::generatedLabel(f, v), ad::bench::generateStencilSource(f, v),
                     {{"N", 64}}});
    }
  }
  for (std::size_t v = 0; v < ad::bench::kPow2Variants; ++v) {
    out.push_back({ad::bench::pow2Label(v), ad::bench::generatePow2Source(v), {{"N", 64}}});
  }
  return out;
}

struct MixRequest {
  std::string key;
  const MixSource* source = nullptr;
  std::int64_t processors = 4;
  std::string validate;
};

/// One deck: every source under every processor count and validate mode
/// (none, symbolic, both), so each deck has the same composition and the
/// seed decides the order.
std::vector<MixRequest> buildDeck(const std::vector<MixSource>& sources) {
  std::vector<MixRequest> deck;
  for (const auto& s : sources) {
    for (const std::int64_t h : {4, 8, 16}) {
      for (const char* v : {"none", "symbolic", "both"}) {
        deck.push_back({"service_mix/" + s.label + "/H" + std::to_string(h) + "/" + v, &s, h, v});
      }
    }
  }
  return deck;
}

ad::service::Request toRequest(const MixRequest& m, std::size_t seq) {
  ad::service::Request r;
  r.id = m.key + "#" + std::to_string(seq);
  r.source = m.source->text;
  r.params = m.source->params;
  r.processors = m.processors;
  r.validate = m.validate;
  r.simulate = m.validate != "none";
  return r;
}

Outcome responseOutcome(const MixRequest& m, const ad::service::Response& resp) {
  Outcome o;
  o.key = m.key;
  if (resp.hasGolden()) o.digest = digestOf(resp.golden);
  switch (resp.kind) {
    case ad::service::ResponseKind::kOk: o.verdict = "ok"; break;
    case ad::service::ResponseKind::kDegraded: o.verdict = "degraded"; break;
    case ad::service::ResponseKind::kError: o.verdict = "error:" + resp.errorCode; break;
    default: o.verdict = ad::service::responseKindName(resp.kind); break;
  }
  return o;
}

struct MixStats {
  std::vector<double> latenciesMs, queueMs, runMs;
  std::int64_t attempted = 0, ok = 0;
  int decks = 0;
  /// Per deck: first submit and last completion, for the deck's request rate.
  std::vector<std::pair<Clock::time_point, Clock::time_point>> deckWindows;
  std::map<std::string, std::string> digestByKey;  ///< for the traced replay
};

/// Closed loop of one caller: the next request is submitted only after the
/// previous one is done. On a shared host, nproc outstanding requests made
/// the run-to-run spread about twice as wide (their trace replays alone
/// start up to 16 threads each). Whole decks are run until `seconds` have
/// passed.
MixStats driveService(ad::service::Server& server, const std::vector<MixRequest>& base,
                      std::mt19937_64& rng, double seconds, bool onePass, Checker& checker) {
  MixStats st;
  const auto begin = Clock::now();
  std::vector<const MixRequest*> deck;
  for (const auto& r : base) deck.push_back(&r);
  std::size_t seq = 0;
  while (st.decks == 0 || (!onePass && msBetween(begin, Clock::now()) < seconds * 1000.0)) {
    shuffleSeeded(deck, rng);
    ++st.decks;
    Clock::time_point first, last;
    for (const MixRequest* m : deck) {
      const auto t0 = Clock::now();
      const ad::service::RequestHandlePtr h = server.submit(toRequest(*m, seq++));
      const ad::service::Response resp = h->wait();
      const auto t1 = Clock::now();
      if (m == deck.front()) first = t0;
      last = t1;
      const Outcome o = responseOutcome(*m, resp);
      ++st.attempted;
      if (checker.check(o) && o.ok()) ++st.ok;
      st.latenciesMs.push_back(msBetween(t0, t1));
      st.queueMs.push_back(static_cast<double>(resp.queueUs) / 1000.0);
      st.runMs.push_back(static_cast<double>(resp.runUs) / 1000.0);
      st.digestByKey[m->key] = o.verdict + " " + o.digest;
    }
    st.deckWindows.emplace_back(first, last);
  }
  return st;
}

RunResult runServiceMix(const Options& opts, Checker& checker, Clock::time_point mainEntry,
                        LayerTally* traced) {
  RunResult rr;
  const std::vector<MixSource> sources = buildMixSources(opts.root);
  const std::vector<MixRequest> base = buildDeck(sources);
  ad::service::ServerOptions so;
  so.workers = nproc();
  ad::service::Server server(so);
  rr.setupSeconds = secondsSinceStart(opts, mainEntry);
  if (opts.setupProbe) return rr;
  std::mt19937_64 rng(opts.seed);
  const Counters before = countersNow();
  MixStats st = driveService(server, base, rng, opts.seconds, !opts.recordPath.empty(), checker);
  server.shutdown();
  rr.attempted = st.attempted;
  rr.okOps = st.ok;
  for (const auto& [first, last] : st.deckWindows) {
    rr.passRates.push_back(static_cast<double>(base.size()) * 1000.0 / msBetween(first, last));
  }
  rr.latenciesMs = st.latenciesMs;
  rr.notes.push_back("decks: " + std::to_string(st.decks) + " x " + std::to_string(base.size()) +
                     " requests, one outstanding, " + std::to_string(so.workers) + " workers");
  if (traced == nullptr) return rr;

  addDelta(traced->counters, before);
  traced->noteArena();
  traced->queueMs = st.queueMs;
  traced->runMs = st.runMs;
  // Replay one deck layer by layer on the warm arena, checking each request
  // against the program's analyzeAndSimulate and against the service answer.
  std::vector<const MixRequest*> deck;
  for (const auto& r : base) deck.push_back(&r);
  shuffleSeeded(deck, rng);
  for (const MixRequest* m : deck) {
    PipelineConfig config;
    config.processors = m->processors;
    config.simulatePlan = config.simulateBaseline = m->validate != "none";
    if (m->validate == "symbolic") config.validate = ValidateMode::kSymbolic;
    if (m->validate == "both") config.validate = ValidateMode::kBoth;
    std::optional<ad::ir::Program> program;
    const PipelineResult layered = traced->replay(m->key, [&](std::int64_t op) {
      program = traced->log.time("frontend.parse", op,
                                 [&] { return ad::frontend::parseProgram(m->source->text); });
      config.params = ad::codes::bindParams(*program, m->source->params);
      return e2e::runLayered(*program, config, traced->log, op);
    });

    const auto t0 = Clock::now();
    const ad::ir::Program again = ad::frontend::parseProgram(m->source->text);
    PipelineConfig refConfig = config;
    refConfig.params = ad::codes::bindParams(again, m->source->params);
    const PipelineResult reference = ad::driver::analyzeAndSimulate(again, refConfig);
    traced->untracedMs += msBetween(t0, Clock::now());
    const std::string golden = ad::driver::serializeGolden(layered, *program);
    if (golden != ad::driver::serializeGolden(reference, again)) {
      checker.fail(m->key + ": layer-by-layer golden differs from analyzeAndSimulate");
    }
    const std::string verdict = verdictOf(layered);
    const std::string seen = verdict + " " + (verdict == "ok" ? digestOf(golden) : "-");
    if (st.digestByKey.count(m->key) && st.digestByKey.at(m->key) != seen) {
      checker.fail(m->key + ": layer-by-layer result " + seen + " differs from service " +
                   st.digestByKey.at(m->key));
    }
  }
  rr.layers = layerMetrics(*traced, checker, 1, st.decks);
  return rr;
}

// ---------------------------------------------------------------------------
// Self-test of the percentile rule
// ---------------------------------------------------------------------------

int selfTestPercentiles() {
  int failures = 0;
  auto expect = [&](bool cond, const std::string& what) {
    std::cout << (cond ? "  ok    " : "  FAIL  ") << what << "\n";
    if (!cond) ++failures;
  };
  auto range = [](int n) {
    std::vector<double> v;
    for (int i = n; i >= 1; --i) v.push_back(i);
    return v;
  };
  expect(tailReported(percentile(range(100), 90)), "p90 of 100 samples has 10 above: reported");
  expect(!tailReported(percentile(range(99), 90)), "p90 of 99 samples has 9 above: withheld");
  expect(tailReported(percentile(range(1000), 99)), "p99 of 1000 samples: reported");
  expect(!tailReported(percentile(range(999), 99)), "p99 of 999 samples: withheld");
  expect(!tailReported(percentile(range(12), 90)), "p90 of 12 samples: withheld");
  expect(percentile(range(1000), 99).value == 990.0, "p99 of 1..1000 is 990");
  expect(percentile(range(12), 50).value == 6.0, "p50 of 1..12 is 6 (nearest rank)");
  expect(tailPercentile(range(500)).first == 90.0, "tail of 500 samples is p90");
  std::cout << (failures == 0 ? "percentile self-test passed\n" : "percentile self-test FAILED\n");
  return failures == 0 ? 0 : 1;
}

void printMetric(std::ostream& os, const std::string& name, double v, const std::string& unit,
                 const std::string& extra = "") {
  os << "  " << name << " = " << fullDigits(v) << " " << unit << extra << "\n";
}

}  // namespace

int main(int argc, char** argv) {
  const Clock::time_point mainEntry = Clock::now();
  const Options opts = parseOptions(argc, argv);
  if (opts.selfTestPercentiles) return selfTestPercentiles();

  Checker checker(opts);
  std::optional<LayerTally> tally;
  if (opts.trace) tally.emplace();
  LayerTally* traced = tally ? &*tally : nullptr;

  RunResult rr;
  try {
    if (opts.workload == "paper_study") rr = runPaperStudy(opts, checker, mainEntry, traced);
    else if (opts.workload == "batch_cold") rr = runBatchCold(opts, checker, mainEntry, traced);
    else rr = runServiceMix(opts, checker, mainEntry, traced);
  } catch (const std::exception& e) {
    std::cerr << "e2ebench: " << opts.workload << " failed: " << e.what() << "\n";
    return 1;
  }
  if (opts.setupProbe) {
    std::cout << "setup_s " << fullDigits(rr.setupSeconds) << std::endl;
    return 0;
  }
  if (rr.attempted == 0) {
    std::cerr << "e2ebench: " << opts.workload << " completed no operation\n";
    return 1;
  }
  if (!opts.recordPath.empty()) {
    if (checker.failures() != 0) return 1;
    checker.writeRecord(opts.recordPath, opts.workload);
    std::cout << "recorded " << opts.workload << " into " << opts.recordPath << "\n";
    return 0;
  }
  if (traced != nullptr) writeChromeTrace(*traced, opts.traceOut);

  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  const double peakRssMb = static_cast<double>(usage.ru_maxrss) / 1024.0;
  const std::int64_t failed = checker.failures();
  const bool correct = failed == 0;

  std::ostringstream report;
  report << "e2ebench " << opts.workload << " seed=" << opts.seed
         << " seconds=" << opts.seconds << " trace=" << (opts.trace ? 1 : 0) << "\n";
  for (const auto& n : rr.notes) report << "  " << n << "\n";

  std::vector<std::tuple<std::string, double, std::string>> metrics;
  if (traced == nullptr) {
    const Percentile p50 = percentile(rr.latenciesMs, 50);
    std::vector<double> setups = opts.setupSamples;
    setups.push_back(rr.setupSeconds);
    metrics = {
        {"throughput_rps", median(rr.passRates), "1/s"},
        {"latency_p50_ms", p50.value, "ms"},
        {"setup_s", median(setups), "s"},
        {"peak_rss_mb", peakRssMb, "MB"},
        {"ok_rate", static_cast<double>(rr.okOps) / static_cast<double>(rr.attempted), "ratio"},
    };
    for (const auto& [name, v, unit] : metrics) printMetric(report, name, v, unit);
    report << "  latency samples = " << p50.samples << ", set-up samples = " << setups.size()
           << "\n";
    for (const double p : {90.0, 99.0}) {
      const Percentile pc = percentile(rr.latenciesMs, p);
      const std::string name = p == 90.0 ? "latency_p90_ms" : "latency_p99_ms";
      if (tailReported(pc)) {
        printMetric(report, name, pc.value, "ms",
                    " (" + std::to_string(pc.above) + " samples above, " +
                        std::to_string(pc.samples) + " total)");
      } else {
        report << "  " << name << " withheld: " << pc.above << " samples above it, "
               << kTailSamples << " needed\n";
      }
    }
    printMetric(report, "error_rate",
                1.0 - static_cast<double>(rr.okOps) / static_cast<double>(rr.attempted), "ratio");
    if (rr.planEfficiency) printMetric(report, "plan_efficiency", *rr.planEfficiency, "ratio");
  } else {
    for (const auto& [name, v] : rr.layers) {
      const bool count = name == "dsm.accesses" || name == "comm.schedules" ||
                         name == "comm.words" || name == "ilp.greedy_fallbacks" ||
                         name == "support.pool_steals";
      const std::string unit = name.ends_with("_ms")      ? "ms"
                               : name.ends_with("_pct")   ? "%"
                               : name.ends_with("_bytes") ? "bytes"
                               : name.ends_with("_access") ? "ns"
                               : count                      ? "count"
                                                            : "ratio";
      metrics.emplace_back(name, v, unit);
      printMetric(report, name, v, unit);
    }
    report << "  trace: " << opts.traceOut << " (" << traced->log.spans().size() << " spans)\n";
  }
  report << "  attempted = " << rr.attempted << ", failed = " << failed
         << ", correct = " << (correct ? "true" : "false") << "\n";
  std::cout << report.str();

  std::ostringstream json;
  json << "{\"correct\": " << (correct ? "true" : "false") << ", \"attempted\": " << rr.attempted
       << ", \"failed\": " << failed << ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    const auto& [name, v, unit] = metrics[i];
    json << (i ? ", " : "") << "\"" << name << "\": {\"value\": " << fullDigits(v)
         << ", \"unit\": \"" << unit << "\"}";
  }
  json << "}}";
  std::cout << json.str() << std::endl;
  return correct ? 0 : 1;
}
