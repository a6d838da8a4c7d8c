// Trace simulation: the enumerating oracle of the Theorem-1/2 validation.
//
// A trace is the communication a plan actually causes: per-phase, per-array
// local vs. remote access counts, remote bytes moved, and the redistribution
// and frontier-refresh events between phases. dsm::simulate() already walks
// every concrete access serially — each DOALL iteration on its CYCLIC(p_k)
// executor, each address against the plan's BLOCK-CYCLIC(b) owners — and
// tallies exactly that trace next to its model cycles. This module packages
// that tally as a TraceResult, publishes the ad.sim.* traffic totals, and
// hosts the "sim.trace" fault point of the pipeline's trace stage.
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
  double wallSeconds = 0.0;         ///< host time of its own replay (0 if reused)

  [[nodiscard]] double accessesPerSecond() const {
    return wallSeconds > 0.0 ? static_cast<double>(totalAccesses) / wallSeconds : 0.0;
  }
  [[nodiscard]] double localFraction() const;
  [[nodiscard]] std::string str() const;
};

/// Replays `program` under `plan` on opts.processors simulated PEs (one
/// serial dsm::simulate pass). The plan must cover every phase (same contract
/// as dsm::simulate). Throws AnalysisError/ProgramError on unanalyzable
/// inputs.
[[nodiscard]] TraceResult simulateTrace(const ir::Program& program, const ir::Bindings& params,
                                        const dsm::ExecutionPlan& plan, const SimOptions& opts);

/// The trace of a replay that already ran (dsm::SimulationResult::observed),
/// so the pipeline does not enumerate the program a second time. Behaves as
/// simulateTrace otherwise: same fault point, same ad.sim.* totals.
[[nodiscard]] TraceResult traceOfReplay(dsm::ObservedTrace observed, std::int64_t processors);

}  // namespace ad::sim
