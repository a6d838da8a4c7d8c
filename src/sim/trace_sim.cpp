#include "sim/trace_sim.hpp"

#include <chrono>
#include <sstream>
#include <utility>

#include "obs/obs.hpp"
#include "support/diagnostics.hpp"
#include "support/fault.hpp"

namespace ad::sim {

namespace {

/// Totals the observed counts and publishes them as the ad.sim.* counters
/// (equal to the returned TraceResult's by construction).
TraceResult package(dsm::ObservedTrace observed, std::int64_t processors, double wallSeconds) {
  TraceResult result;
  result.observed = std::move(observed);
  result.processors = processors;
  result.wallSeconds = wallSeconds;
  std::int64_t local = 0;
  std::int64_t remote = 0;
  std::int64_t remoteBytes = 0;
  for (const auto& p : result.observed.phases) {
    for (const auto& [array, c] : p.arrays) {
      local += c.local;
      remote += c.remote;
      remoteBytes += c.remoteBytes;
    }
  }
  result.totalAccesses = local + remote;
  std::int64_t redistWords = 0;
  std::int64_t frontierWords = 0;
  for (const auto& r : result.observed.redistributions) {
    (r.frontier ? frontierWords : redistWords) += r.wordsMoved;
  }
  obs::MetricsRegistry& reg = obs::metrics();
  reg.counter("ad.sim.local_accesses").add(local);
  reg.counter("ad.sim.remote_accesses").add(remote);
  reg.counter("ad.sim.remote_bytes").add(remoteBytes);
  reg.counter("ad.sim.redistributed_words").add(redistWords);
  reg.counter("ad.sim.frontier_words").add(frontierWords);
  return result;
}

}  // namespace

double TraceResult::localFraction() const {
  std::int64_t local = 0;
  std::int64_t remote = 0;
  for (const auto& p : observed.phases) {
    local += p.local();
    remote += p.remote();
  }
  const auto total = local + remote;
  return total == 0 ? 1.0 : static_cast<double>(local) / static_cast<double>(total);
}

std::string TraceResult::str() const {
  std::ostringstream os;
  os << "trace: H=" << processors << " accesses=" << totalAccesses
     << " local_fraction=" << localFraction() << "\n";
  for (const auto& p : observed.phases) {
    os << "  " << p.phase << ":";
    for (const auto& [array, c] : p.arrays) {
      os << " " << array << "(local=" << c.local << ",remote=" << c.remote << ")";
    }
    os << "\n";
  }
  for (const auto& r : observed.redistributions) {
    os << "  " << (r.frontier ? "frontier " : "redistribute ") << r.array << " before phase "
       << r.beforePhase + 1 << ": words=" << r.wordsMoved << " msgs=" << r.messages << "\n";
  }
  return os.str();
}

TraceResult simulateTrace(const ir::Program& program, const ir::Bindings& params,
                          const dsm::ExecutionPlan& plan, const SimOptions& opts) {
  obs::Span traceSpan("sim.trace", "sim");
  if (AD_FAULT_POINT("sim.trace")) {
    throw AnalysisError("injected fault: trace simulation aborted (sim.trace)");
  }
  AD_REQUIRE(opts.processors >= 1, "need at least one simulated processor");
  dsm::MachineParams machine;
  machine.processors = opts.processors;
  const auto start = std::chrono::steady_clock::now();
  dsm::SimulationResult replay = dsm::replay(program, params, machine, plan);
  const double seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
  return package(std::move(replay.observed), opts.processors, seconds);
}

}  // namespace ad::sim
