#include "locality/symbolic_validate.hpp"

#include <chrono>
#include <map>
#include <sstream>
#include <utility>
#include <vector>

#include "dsm/closed_form.hpp"
#include "obs/obs.hpp"
#include "support/budget.hpp"
#include "support/diagnostics.hpp"
#include "support/fault.hpp"

namespace ad::loc {

double SymbolicCounts::localFraction() const {
  std::int64_t local = 0;
  std::int64_t remote = 0;
  for (const auto& p : observed.phases) {
    local += p.local();
    remote += p.remote();
  }
  const auto total = local + remote;
  return total == 0 ? 1.0 : static_cast<double>(local) / static_cast<double>(total);
}

std::string SymbolicCounts::str() const {
  std::ostringstream os;
  os << "symval: H=" << processors << " accesses=" << totalAccesses
     << " local_fraction=" << localFraction() << " regions(closed-form=" << closedFormRegions
     << ", enumerated=" << enumeratedRegions << ")\n";
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

SymbolicCounts symbolicTrace(const ir::Program& program, const ir::Bindings& params,
                             const dsm::ExecutionPlan& plan, const SymvalOptions& opts) {
  obs::Span span("symval.trace", "symval");
  AD_REQUIRE(plan.iteration.size() == program.phases().size(), "plan must cover every phase");
  AD_REQUIRE(opts.processors >= 1, "need at least one processor");
  const std::int64_t H = opts.processors;
  const auto start = std::chrono::steady_clock::now();

  SymbolicCounts result;
  result.processors = H;
  dsm::LocalitySets sets;
  // Global redistributions follow all frontier events in the observed trace
  // (dsm::ObservedTrace's order).
  std::vector<dsm::RedistributionStats> globals;

  for (std::size_t k = 0; k < program.phases().size(); ++k) {
    const ir::Phase& phase = program.phase(k);
    obs::Span phaseSpan("symval.phase:" + phase.name(), "symval");
    for (const auto& arr : program.arrays()) {
      if (auto rs = dsm::globalRedistribution(program, params, plan, arr, k, H)) {
        globals.push_back(std::move(*rs));
      }
      // Frontier refreshes: the same closed form the replay records.
      if (auto rs = dsm::frontierRefresh(program, params, plan, arr, k)) {
        result.observed.redistributions.push_back(std::move(*rs));
      }
    }

    // Closed-form access counting, with per-(phase, array) degradation to the
    // enumerating oracle on Unknown regions.
    const dsm::PhaseRecipe recipe = dsm::phaseRecipe(program, plan, k);
    dsm::PhaseTally tally(recipe.arrays.size(), H);
    std::map<std::size_t, std::string> degraded;  // slot -> cause
    for (std::size_t i = 0; i < recipe.refs.size(); ++i) {
      const std::size_t slot = recipe.refs[i].slot;
      if (degraded.count(slot) != 0) continue;
      if (AD_FAULT_POINT("symval.region")) {
        degraded.emplace(slot, "fault");
        continue;
      }
      bool ok = false;
      try {
        ok = dsm::countReference(program, params, plan, k, i, recipe, H, sets, tally);
      } catch (const AnalysisError&) {
        ok = false;  // non-integer form: the oracle settles it
      }
      if (ok) {
        ++result.closedFormRegions;
      } else {
        degraded.emplace(slot, support::budgetCompromised() ? support::currentDegradationCause()
                                                            : "unknown-region");
      }
    }

    if (!degraded.empty()) {
      for (const auto& [slot, cause] : degraded) {
        for (const auto& rr : recipe.refs) {
          if (rr.slot == slot) ++result.enumeratedRegions;
        }
        support::recordDegradation("symval.region",
                                   "phase=" + phase.name() + " array=" + recipe.arrays[slot],
                                   "enumerated trace oracle", cause);
      }
      // The enumerating oracle's own per-phase replay settles the counts.
      dsm::MachineParams machine;
      machine.processors = H;
      const dsm::PhaseReplay replay = dsm::replayPhase(program, params, machine, plan, k);
      for (const auto& [slot, cause] : degraded) {
        tally.arrays[slot] = replay.counts.arrays.at(recipe.arrays[slot]);
      }
    }

    dsm::PhaseCounts pc;
    pc.phase = phase.name();
    for (std::size_t slot = 0; slot < recipe.arrays.size(); ++slot) {
      pc.arrays.emplace(recipe.arrays[slot], tally.arrays[slot]);
      result.totalAccesses += tally.arrays[slot].local + tally.arrays[slot].remote;
    }
    result.observed.phases.push_back(std::move(pc));
  }
  for (auto& rs : globals) result.observed.redistributions.push_back(std::move(rs));

  result.wallSeconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();

  obs::MetricsRegistry& reg = obs::metrics();
  std::int64_t localTotal = 0;
  std::int64_t remoteTotal = 0;
  std::int64_t remoteBytes = 0;
  for (const auto& p : result.observed.phases) {
    for (const auto& [array, c] : p.arrays) {
      localTotal += c.local;
      remoteTotal += c.remote;
      remoteBytes += c.remoteBytes;
    }
  }
  reg.counter("ad.symval.local_accesses").add(localTotal);
  reg.counter("ad.symval.remote_accesses").add(remoteTotal);
  reg.counter("ad.symval.remote_bytes").add(remoteBytes);
  reg.counter("ad.symval.regions_closed_form").add(result.closedFormRegions);
  reg.counter("ad.symval.regions_enumerated").add(result.enumeratedRegions);
  std::int64_t redistWords = 0;
  std::int64_t frontierWords = 0;
  for (const auto& r : result.observed.redistributions) {
    (r.frontier ? frontierWords : redistWords) += r.wordsMoved;
  }
  reg.counter("ad.symval.redistributed_words").add(redistWords);
  reg.counter("ad.symval.frontier_words").add(frontierWords);
  return result;
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
