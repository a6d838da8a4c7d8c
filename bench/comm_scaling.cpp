// Communication generation over one owner period.
//
// comm::generateGlobal walks the owner runs of one joint owner period plus
// the tail, and comm::verifiesRedistribution checks the same elements, so
// their cost depends on the period, not on the array size. This bench
// records both facts:
//
//   - moves: every global redistribution the pipeline schedules for tfft2,
//     hydro2d and trfd at study size on 64 PEs, plus tfft2's X at
//     P = Q = 1024 on 8 PEs, with the exact runs walked, words and messages
//     and the median time to generate and verify each schedule;
//   - scaling: one fixed move (CYCLIC(1) -> BLOCK-CYCLIC(512) on 64 PEs) at
//     size n and 16 n, timed alternately in one process; the ratio
//     t(16 n) / t(n) stays near 1 (a whole-array walk would read ~16).
//
// Emits BENCH_comm.json, gated by scripts/bench_compare.py in `ci.sh perf`:
// counts exact, the ratio under a fixed ceiling.
#include <algorithm>
#include <chrono>
#include <iomanip>
#include <sstream>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "codes/suite.hpp"
#include "comm/schedule.hpp"
#include "driver/pipeline.hpp"
#include "dsm/closed_form.hpp"
#include "obs/obs.hpp"

namespace {

using namespace ad;
using Clock = std::chrono::steady_clock;

struct Move {
  std::string name;  ///< code.array
  std::int64_t processors = 0;
  std::string params;
  dsm::DataDistribution from;
  dsm::DataDistribution to;
  std::int64_t size = 0;
};

struct Measured {
  std::int64_t period = 0;
  std::int64_t repeats = 0;
  std::int64_t runsWalked = 0;
  std::int64_t words = 0;
  std::int64_t messages = 0;
  std::int64_t ranges = 0;
  double generateMs = 0.0;
  double verifyMs = 0.0;
};

std::string describe(const dsm::DataDistribution& d) {
  if (d.kind == dsm::DataDistribution::Kind::kFoldedBlockCyclic) {
    return "FOLDED(" + std::to_string(d.block) + "," + std::to_string(d.fold) + ")";
  }
  return "BLOCK-CYCLIC(" + std::to_string(d.block) + ")";
}

double msSince(Clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
}

double median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  return v[v.size() / 2];
}

/// The global redistributions the pipeline schedules for one code, in the
/// pipeline's own order.
std::vector<Move> movesOf(const codes::CodeInfo& code,
                          const std::map<std::string, std::int64_t>& values,
                          std::int64_t processors) {
  const ir::Program program = code.build();
  driver::PipelineConfig config;
  config.params = codes::bindParams(program, values);
  config.processors = processors;
  config.simulatePlan = false;
  config.simulateBaseline = false;
  const auto result = driver::analyzeAndSimulate(program, config);
  std::string params;
  for (const auto& [k, v] : values) {
    params += (params.empty() ? "" : ",") + k + "=" + std::to_string(v);
  }
  std::vector<Move> moves;
  for (const auto& [array, dists] : result.plan.data) {
    const std::int64_t size = ir::evalInt(program.array(array).size, config.params, "array size");
    for (std::size_t k = 1; k < dists.size(); ++k) {
      if (!dsm::globalRedistributionDue(program, result.plan, array, k)) continue;
      moves.push_back(Move{code.name + "." + array, processors, params, dists[k - 1], dists[k],
                           size});
    }
  }
  return moves;
}

Measured measure(const Move& mv, int reps) {
  obs::Counter& walked = obs::metrics().counter("ad.comm.runs_walked");
  Measured out;
  std::vector<double> gen;
  std::vector<double> ver;
  for (int r = 0; r < reps; ++r) {
    const std::int64_t before = walked.value();
    auto t0 = Clock::now();
    const auto sched = comm::generateGlobal("X", mv.size, mv.from, mv.to, mv.processors);
    gen.push_back(msSince(t0));
    out.runsWalked = walked.value() - before;
    t0 = Clock::now();
    const bool ok = comm::verifiesRedistribution(sched, mv.size, mv.from, mv.to, mv.processors);
    ver.push_back(msSince(t0));
    AD_CHECK(ok);
    out.period = sched.period();
    out.repeats = sched.repeats();
    out.words = sched.totalWords();
    out.messages = static_cast<std::int64_t>(sched.messageCount());
    out.ranges = sched.rangeCount();
  }
  out.generateMs = median(gen);
  out.verifyMs = median(ver);
  return out;
}

}  // namespace

int main() {
  bench::Reporter rep("Communication schedules: one owner period per redistribution");
  const auto& suite = codes::benchmarkSuite();
  const auto codeNamed = [&](const std::string& name) -> const codes::CodeInfo& {
    return *std::find_if(suite.begin(), suite.end(),
                         [&](const codes::CodeInfo& c) { return c.name == name; });
  };

  std::vector<Move> moves;
  for (const char* name : {"tfft2", "hydro2d", "trfd"}) {
    const auto& code = codeNamed(name);
    for (auto& mv : movesOf(code, code.studyParams, 64)) moves.push_back(std::move(mv));
  }
  for (auto& mv : movesOf(codeNamed("tfft2"), {{"P", 1024}, {"Q", 1024}}, 8)) {
    if (mv.name == "tfft2.X") moves.push_back(std::move(mv));
  }
  rep.checkTrue("four study moves plus tfft2.X at P = Q = 1024", moves.size() == 5);

  std::ostringstream json;
  json << std::setprecision(6);
  json << "{\n  \"schema\": \"ad.bench.comm.v1\",\n  \"moves\": [\n";
  for (std::size_t i = 0; i < moves.size(); ++i) {
    const Move& mv = moves[i];
    const Measured m = measure(mv, 7);
    std::ostringstream what;
    what << mv.name << " (" << mv.params << ", H=" << mv.processors << ") " << describe(mv.from)
         << " -> " << describe(mv.to) << ": size " << mv.size << " = " << m.repeats << " x "
         << m.period << " + " << mv.size - m.repeats * m.period << "; " << m.runsWalked
         << " runs walked, " << m.words << " words, " << m.messages << " messages, " << m.ranges
         << " ranges; generate " << std::setprecision(3) << m.generateMs << " ms, verify "
         << m.verifyMs << " ms";
    rep.checkTrue(what.str(), m.runsWalked <= m.period + mv.size - m.repeats * m.period);
    json << "    {\"name\": \"" << mv.name << "\", \"params\": \"" << mv.params
         << "\", \"processors\": " << mv.processors << ", \"from\": \"" << describe(mv.from)
         << "\", \"to\": \"" << describe(mv.to) << "\", \"size\": " << mv.size
         << ", \"period\": " << m.period << ", \"repeats\": " << m.repeats
         << ", \"runs_walked\": " << m.runsWalked << ", \"words\": " << m.words
         << ", \"messages\": " << m.messages << ", \"ranges\": " << m.ranges
         << ", \"generate_ms\": " << m.generateMs << ", \"verify_ms\": " << m.verifyMs << "}"
         << (i + 1 < moves.size() ? "," : "") << "\n";
  }
  json << "  ],\n";

  // Size independence: the same move at n and 16 n, alternated so both legs
  // see the same machine.
  const Move base{"CYCLIC(1)->BLOCK-CYCLIC(512)", 64, "",
                  dsm::DataDistribution::blockCyclic(1), dsm::DataDistribution::blockCyclic(512),
                  4 * 32768 + 1};
  Move scaled = base;
  scaled.size = 16 * base.size;
  constexpr int kReps = 11;
  std::vector<double> small;
  std::vector<double> large;
  Measured ms;
  Measured ml;
  for (int r = 0; r < kReps; ++r) {
    ms = measure(base, 1);
    ml = measure(scaled, 1);
    small.push_back(ms.generateMs + ms.verifyMs);
    large.push_back(ml.generateMs + ml.verifyMs);
  }
  const double tSmall = median(small);
  const double tLarge = median(large);
  const double ratio = tLarge / tSmall;
  std::ostringstream what;
  what << std::setprecision(3) << "size independence: t(16 n) / t(n) = " << tLarge << " / "
       << tSmall << " ms = " << ratio << " (n = " << base.size << ", runs walked " << ms.runsWalked
       << " vs " << ml.runsWalked << ")";
  rep.checkTrue(what.str(), ratio < 3.0);
  json << "  \"scaling\": {\"move\": \"" << base.name << "\", \"processors\": " << base.processors
       << ", \"size\": " << base.size << ", \"scale\": 16, \"reps\": " << kReps
       << ", \"runs_walked\": [" << ms.runsWalked << ", " << ml.runsWalked
       << "], \"words\": [" << ms.words << ", " << ml.words << "], \"t_ms\": [" << tSmall << ", "
       << tLarge << "], \"ratio\": " << ratio << "}\n}\n";

  if (bench::writeTextFile("BENCH_comm.json", json.str())) rep.note("wrote BENCH_comm.json");
  return rep.finish();
}
