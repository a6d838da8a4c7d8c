#include "locality/symbolic_validate.hpp"

#include <chrono>
#include <sstream>

#include "obs/obs.hpp"
#include "support/diagnostics.hpp"

namespace ad::loc {

namespace {

/// Packages the cost model's trace and region tally, and publishes them as
/// the ad.symval.* counters (equal to the returned counts by construction).
SymbolicCounts package(const dsm::SimulationResult& costed, std::int64_t processors,
                       double wallSeconds) {
  SymbolicCounts result;
  result.observed = costed.observed;
  result.processors = processors;
  result.wallSeconds = wallSeconds;
  result.closedFormRegions = costed.closedFormRegions;
  result.enumeratedRegions = costed.enumeratedRegions;
  const dsm::TrafficTotals t = result.observed.totals();
  result.totalAccesses = t.accesses();
  obs::MetricsRegistry& reg = obs::metrics();
  reg.counter("ad.symval.local_accesses").add(t.local);
  reg.counter("ad.symval.remote_accesses").add(t.remote);
  reg.counter("ad.symval.remote_bytes").add(t.remoteBytes);
  reg.counter("ad.symval.regions_closed_form").add(result.closedFormRegions);
  reg.counter("ad.symval.regions_enumerated").add(result.enumeratedRegions);
  reg.counter("ad.symval.redistributed_words").add(t.redistributedWords);
  reg.counter("ad.symval.frontier_words").add(t.frontierWords);
  return result;
}

}  // namespace

std::string SymbolicCounts::str() const {
  std::ostringstream os;
  os << "symval: H=" << processors << " accesses=" << totalAccesses
     << " local_fraction=" << observed.localFraction()
     << " regions(closed-form=" << closedFormRegions << ", enumerated=" << enumeratedRegions
     << ")\n"
     << observed.str();
  return os.str();
}

SymbolicCounts symbolicTrace(const ir::Program& program, const ir::Bindings& params,
                             const dsm::ExecutionPlan& plan, const SymvalOptions& opts) {
  obs::Span span("symval.trace", "symval");
  AD_REQUIRE(opts.processors >= 1, "need at least one processor");
  dsm::MachineParams machine;
  machine.processors = opts.processors;
  const auto start = std::chrono::steady_clock::now();
  const dsm::SimulationResult costed = dsm::simulate(program, params, machine, plan);
  const double seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
  return package(costed, opts.processors, seconds);
}

SymbolicCounts symbolicCounts(const dsm::SimulationResult& costed, std::int64_t processors) {
  obs::Span span("symval.trace", "symval");
  return package(costed, processors, 0.0);
}

std::optional<std::string> describeTraceDifference(const dsm::ObservedTrace& symbolic,
                                                   const dsm::ObservedTrace& trace) {
  std::ostringstream os;
  if (symbolic.phases.size() != trace.phases.size()) {
    os << "phase count " << symbolic.phases.size() << " != " << trace.phases.size();
    return os.str();
  }
  for (std::size_t k = 0; k < trace.phases.size(); ++k) {
    const auto& sp = symbolic.phases[k];
    const auto& tp = trace.phases[k];
    if (sp.phase != tp.phase) {
      os << "phase " << k << " name '" << sp.phase << "' != '" << tp.phase << "'";
      return os.str();
    }
    if (sp.arrays.size() != tp.arrays.size()) {
      os << "phase " << sp.phase << ": array count " << sp.arrays.size()
         << " != " << tp.arrays.size();
      return os.str();
    }
    auto si = sp.arrays.begin();
    auto ti = tp.arrays.begin();
    for (; ti != tp.arrays.end(); ++si, ++ti) {
      if (si->first != ti->first) {
        os << "phase " << sp.phase << ": array '" << si->first << "' != '" << ti->first << "'";
        return os.str();
      }
      if (si->second.local != ti->second.local || si->second.remote != ti->second.remote ||
          si->second.remoteBytes != ti->second.remoteBytes) {
        os << "phase " << sp.phase << " array " << ti->first << ": symbolic local/remote/bytes "
           << si->second.local << "/" << si->second.remote << "/" << si->second.remoteBytes
           << " != traced " << ti->second.local << "/" << ti->second.remote << "/"
           << ti->second.remoteBytes;
        return os.str();
      }
    }
  }
  if (symbolic.redistributions.size() != trace.redistributions.size()) {
    os << "redistribution count " << symbolic.redistributions.size()
       << " != " << trace.redistributions.size();
    return os.str();
  }
  for (std::size_t i = 0; i < trace.redistributions.size(); ++i) {
    const auto& sr = symbolic.redistributions[i];
    const auto& tr = trace.redistributions[i];
    if (sr.array != tr.array || sr.beforePhase != tr.beforePhase ||
        sr.frontier != tr.frontier || sr.wordsMoved != tr.wordsMoved ||
        sr.messages != tr.messages) {
      os << "redistribution " << i << ": symbolic (" << sr.array << ", before " << sr.beforePhase
         << ", frontier=" << sr.frontier << ", words=" << sr.wordsMoved
         << ", msgs=" << sr.messages << ") != traced (" << tr.array << ", before "
         << tr.beforePhase << ", frontier=" << tr.frontier << ", words=" << tr.wordsMoved
         << ", msgs=" << tr.messages << ")";
      return os.str();
    }
  }
  return std::nullopt;
}

}  // namespace ad::loc
