// Contention-profiler overhead: the profiler must be cheap enough to leave
// on for any diagnostic run.
//
// Both legs run the identical workload — the ten-code suite analyzed at
// H in {1, 4, 8} through the batched engine at 8 requested workers, cold
// proof memo per repetition. The only difference between the legs is
// obs::profiler().enable(), which turns on the tracer's span folding (the
// rows' source) and the shard-lock accounting: the real cost of
// --profile-out. 101 off/on pairs run interleaved, alternating which leg
// goes first, and the overhead is the median of the per-pair on/off ratios
// (a single ~25 ms leg on a shared machine varies by ~10%; best-of-3 legs
// read anywhere from -30% to +24%).
//
// Emits BENCH_contention.json (schema ad.bench.contention.v1):
//   { "reps": <pairs>, "off_ms": <median>, "on_ms": <median>,
//     "overhead_pct": ..., "profile": {ad.profile.v2 of the last profiled leg} }
//
// Acceptance (checked here, nonzero exit on failure):
//   - profiler overhead < 5% on the ten-code suite,
//   - the profiled leg produced non-empty per-thread rows.
#include <algorithm>
#include <chrono>
#include <sstream>
#include <vector>

#include "bench_util.hpp"
#include "codes/suite.hpp"
#include "driver/pipeline.hpp"
#include "locality/analysis.hpp"
#include "obs/profiler.hpp"
#include "symbolic/intern.hpp"

namespace {

using Clock = std::chrono::steady_clock;

double msSince(Clock::time_point start) {
  return std::chrono::duration<double, std::milli>(Clock::now() - start).count();
}

struct Workload {
  std::vector<ad::ir::Program> programs;  ///< stable addresses
  std::vector<ad::driver::BatchItem> batch;
};

Workload makeWorkload() {
  Workload w;
  const auto& suite = ad::codes::benchmarkSuite();
  w.programs.reserve(suite.size());
  for (const auto& info : suite) w.programs.push_back(info.build());
  for (const std::int64_t h : {1, 4, 8}) {
    for (std::size_t i = 0; i < suite.size(); ++i) {
      ad::driver::BatchItem item;
      item.program = &w.programs[i];
      item.label = suite[i].name;
      item.config.params = ad::codes::bindParams(w.programs[i], suite[i].smallParams);
      item.config.processors = h;
      item.config.simulatePlan = false;
      item.config.simulateBaseline = false;
      w.batch.push_back(std::move(item));
    }
  }
  return w;
}

/// One timed repetition (cold memo). Returns milliseconds.
double runOnce(const Workload& w) {
  ad::sym::ProofMemo::global().clear();
  ad::loc::clearPhaseArrayMemo();
  const auto start = Clock::now();
  const auto results = ad::driver::analyzeBatch(w.batch, 8);
  const double ms = msSince(start);
  for (const auto& res : results) {
    if (!res.has_value()) return -1.0;  // poisoned run: caller fails the check
  }
  return ms;
}

double median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

}  // namespace

int main() {
  using namespace ad;
  bench::Reporter r(
      "Contention profiler overhead (ten-code suite, jobs=8, median of 101 off/on pairs)");

  const Workload w = makeWorkload();
  constexpr int kPairs = 101;

  // Interleave off/on repetitions so machine-level drift (thermal, noisy
  // neighbors) hits both legs alike, and alternate which leg of a pair runs
  // first so neither always inherits the other's warm (or disturbed) state.
  std::vector<double> offMs;
  std::vector<double> onMs;
  std::vector<double> ratios;
  std::string profileJson;
  bool allOk = true;
  sym::ProofMemoEnabledGuard memoOn(true);
  const auto runLeg = [&](bool profiled) {
    if (profiled) {
      obs::profiler().reset();
      obs::profiler().enable();
    }
    const double ms = runOnce(w);
    obs::profiler().disable();
    if (profiled) profileJson = obs::profiler().summary();
    allOk = allOk && ms >= 0.0;
    return ms;
  };
  for (int pair = 0; pair < kPairs; ++pair) {
    const bool onFirst = pair % 2 == 1;
    const double first = runLeg(onFirst);
    const double second = runLeg(!onFirst);
    const double off = onFirst ? second : first;
    const double on = onFirst ? first : second;
    offMs.push_back(off);
    onMs.push_back(on);
    ratios.push_back(on / off);
  }
  r.checkTrue("all repetitions analyzed the full batch", allOk);

  // The estimate is the median of the per-pair on/off ratios: pairing
  // cancels slow drift, and the median ignores the legs a noisy neighbor
  // stalled. Single legs here vary by ~10%, hence the many pairs.
  const double offMedian = median(offMs);
  const double onMedian = median(onMs);
  const double overheadPct = (median(ratios) - 1.0) * 100.0;
  {
    std::sort(ratios.begin(), ratios.end());
    std::ostringstream line;
    line << "profiler off: " << offMedian << " ms, on: " << onMedian << " ms (medians of "
         << kPairs << " pairs); per-pair on/off ratio quartiles " << ratios[kPairs / 4] << " / "
         << ratios[kPairs / 2] << " / " << ratios[3 * kPairs / 4] << "  (overhead "
         << overheadPct << "%)";
    r.note(line.str());
  }
  r.checkTrue("profiler overhead < 5% (got " + std::to_string(overheadPct) + "%)",
              overheadPct < 5.0);
  r.checkTrue("profiled leg produced per-thread rows",
              profileJson.find("\"tasks\"") != std::string::npos);

  std::ostringstream json;
  json << "{\n  \"schema\": \"ad.bench.contention.v1\",\n";
  json << "  \"reps\": " << kPairs << ",\n";
  json << "  \"off_ms\": " << offMedian << ",\n  \"on_ms\": " << onMedian << ",\n";
  json << "  \"overhead_pct\": " << overheadPct << ",\n";
  json << "  \"profile\": " << (profileJson.empty() ? "{}" : profileJson) << "\n}\n";
  if (!bench::writeTextFile("BENCH_contention.json", json.str())) return EXIT_FAILURE;
  r.note("wrote BENCH_contention.json");

  return r.finish();
}
