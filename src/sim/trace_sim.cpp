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
  const dsm::TrafficTotals t = result.observed.totals();
  result.totalAccesses = t.accesses();
  obs::MetricsRegistry& reg = obs::metrics();
  reg.counter("ad.sim.local_accesses").add(t.local);
  reg.counter("ad.sim.remote_accesses").add(t.remote);
  reg.counter("ad.sim.remote_bytes").add(t.remoteBytes);
  reg.counter("ad.sim.redistributed_words").add(t.redistributedWords);
  reg.counter("ad.sim.frontier_words").add(t.frontierWords);
  return result;
}

}  // namespace

std::string TraceResult::str() const {
  std::ostringstream os;
  os << "trace: H=" << processors << " accesses=" << totalAccesses
     << " local_fraction=" << observed.localFraction() << "\n"
     << observed.str();
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
