// Trace simulation: the enumerating oracle of the Theorem-1/2 validation.
//
// A trace is the communication a plan actually causes: per-phase, per-array
// local vs. remote access counts, remote bytes moved, and the redistribution
// and frontier-refresh events between phases. dsm::replay() walks every
// concrete access serially — each DOALL iteration on its CYCLIC(p_k)
// executor, each address against the plan's BLOCK-CYCLIC(b) owners — and
// tallies exactly that trace. This module runs that replay, packages its
// tally as a TraceResult, publishes the ad.sim.* traffic totals, and hosts
// the "sim.trace" fault point of the pipeline's trace stage. It is a true
// enumeration on purpose: the cost model (dsm::simulate) and the symbolic
// validator count in closed form, and this is what they are checked against.
//
// The result feeds dsm::validateLocality(), which compares the observed
// communication against the LCG's Theorem-1/2 edge labels.
#pragma once

#include <cstdint>
#include <string>

#include "dsm/validate.hpp"

namespace ad::sim {

struct SimOptions {
  std::int64_t processors = 8;  ///< simulated PEs
};

struct TraceResult {
  dsm::ObservedTrace observed;      ///< per-phase/per-array counts + comm events
  std::int64_t processors = 1;      ///< simulated PEs
  std::int64_t totalAccesses = 0;
  double wallSeconds = 0.0;         ///< host time of the replay

  [[nodiscard]] double accessesPerSecond() const {
    return wallSeconds > 0.0 ? static_cast<double>(totalAccesses) / wallSeconds : 0.0;
  }
  [[nodiscard]] std::string str() const;
};

/// Replays `program` under `plan` on opts.processors simulated PEs (one
/// serial dsm::replay pass). The plan must cover every phase (same contract
/// as dsm::replay). Throws AnalysisError/ProgramError on unanalyzable
/// inputs.
[[nodiscard]] TraceResult simulateTrace(const ir::Program& program, const ir::Bindings& params,
                                        const dsm::ExecutionPlan& plan, const SimOptions& opts);

}  // namespace ad::sim
