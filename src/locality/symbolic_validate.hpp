// Closed-form (symbolic) trace validation.
//
// The enumerating oracle (dsm::replay, packaged by sim/trace_sim) classifies
// every concrete access of every phase against the plan's distributions —
// exact, but O(accesses), which caps it well below the paper's problem
// scales. This module reports the *same* observed trace in closed form. It
// counts nothing itself: the one closed-form traffic pass is the DSM cost
// model's (dsm::simulate over dsm/closed_form), whose ObservedTrace is
// derived from the access descriptors in O(descriptor regions), independent
// of the iteration counts. symbolicTrace runs that pass on the validation's
// processor count and packages the trace; a pipeline that already costed
// the plan packages that result instead of counting again.
//
// The output is an dsm::ObservedTrace that must be *identical* — field for
// field, ordering included — to sim::simulateTrace's on the same inputs;
// `--validate=both` and the differential tests enforce exactly that.
//
// Degradation: like the cost model, validation charges the caller's budget
// nothing (a budget never turns a closed-form count into an enumeration) and
// stops only when the caller is cancelled. It degrades only on an injected
// "symval.region" fault, which the cost model's per-reference loop hosts: the
// phase is replayed (counts stay exact) and one symval.region event is
// recorded via support::recordDegradation.
#pragma once

#include <cstdint>
#include <optional>
#include <string>

#include "dsm/validate.hpp"
#include "ir/walker.hpp"

namespace ad::loc {

struct SymvalOptions {
  std::int64_t processors = 8;
};

/// Result of one closed-form validation run; `observed` has the exact shape
/// sim::TraceResult::observed has.
struct SymbolicCounts {
  dsm::ObservedTrace observed;
  std::int64_t processors = 0;
  std::int64_t totalAccesses = 0;
  double wallSeconds = 0.0;            ///< host time of the count (0 when reused)
  std::int64_t closedFormRegions = 0;  ///< (phase, ref) regions counted algebraically
  std::int64_t enumeratedRegions = 0;  ///< regions whose phase was replayed

  [[nodiscard]] std::string str() const;
};

/// Computes the plan's observed trace in closed form: one dsm::simulate on
/// opts.processors PEs, packaged. Throws AnalysisError/ProgramError on
/// unanalyzable inputs (same contract as sim::simulateTrace).
[[nodiscard]] SymbolicCounts symbolicTrace(const ir::Program& program,
                                           const ir::Bindings& params,
                                           const dsm::ExecutionPlan& plan,
                                           const SymvalOptions& opts = {});

/// Packages a cost-model result already computed on `processors` PEs as
/// symbolic validation counts, without counting again.
[[nodiscard]] SymbolicCounts symbolicCounts(const dsm::SimulationResult& costed,
                                            std::int64_t processors);

/// Differential comparison: first difference between the symbolic and the
/// enumerated trace (counts, redistribution events, ordering); nullopt when
/// byte-identical.
[[nodiscard]] std::optional<std::string> describeTraceDifference(
    const dsm::ObservedTrace& symbolic, const dsm::ObservedTrace& trace);

}  // namespace ad::loc
