// Closed-form locality counting: the arithmetic core of the DSM cost model.
//
// Every count the replay (dsm::replay) obtains by walking each access is
// derived here from the access descriptors instead. Each reference's access
// region is collapsed into arithmetic progressions — loop-nest tails fold by
// exact stride-merge rules — and each progression is intersected with the
// processor-locality interval sets of sym/interval_set: owner blocks,
// Theorem-1c replicated halos and folded-storage reflections included. A
// DOALL whose region shifts uniformly with the parallel index costs one
// schedule/ownership period plus a remainder, independent of its trip count.
// Global redistributions are counted by walking constant-owner runs over one
// joint ownership period.
//
// One driver uses this core: dsm::simulate, whose per-processor counts give
// the cycles and whose per-array counts give the observed trace that
// symbolic validation (loc::symbolicTrace) reports. It replays a phase whose
// region the algebra cannot collapse (non-affine residue after bounded
// numeric expansion, or a capped expansion); it degrades only on an injected
// "symval.region" fault, which replays the phase too.
#pragma once

#include <algorithm>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <tuple>
#include <vector>

#include "dsm/machine.hpp"
#include "symbolic/interval_set.hpp"

namespace ad::dsm {

/// How one reference's accesses are classified in one phase.
struct RefRecipe {
  std::size_t slot = 0;                    ///< index into PhaseRecipe::arrays
  const DataDistribution* dist = nullptr;  ///< null: privatized (always local)
  std::int64_t halo = 0;                   ///< replicated frontier width (reads only)

  [[nodiscard]] bool alwaysLocal() const { return dist == nullptr || !dist->hasOwner(); }
};

/// The arrays a phase references (first-reference order) and one recipe per
/// reference, parallel to the phase's refs(). Resolved once per phase so no
/// per-access path does map lookups.
struct PhaseRecipe {
  std::vector<std::string> arrays;
  std::vector<RefRecipe> refs;
};

[[nodiscard]] PhaseRecipe phaseRecipe(const ir::Program& program, const ExecutionPlan& plan,
                                      std::size_t phase);

/// Accesses one processor issues in one phase.
struct PeCounts {
  std::int64_t local = 0;
  std::int64_t remote = 0;
};

/// Local/remote tallies of one phase, per array and per processor.
struct PhaseTally {
  std::vector<ArrayCounts> arrays;  ///< parallel to PhaseRecipe::arrays
  std::vector<PeCounts> pes;        ///< one per processor

  PhaseTally(std::size_t numArrays, std::int64_t processors)
      : arrays(numArrays), pes(static_cast<std::size_t>(processors)) {}
};

/// Processor-locality interval sets, built once per (distribution, pe, halo).
class LocalitySets {
 public:
  /// The addresses local to `pe` under `dist` widened by `halo`; nullptr when
  /// the folded expansion is refused (the caller falls back to the replay).
  const sym::PeriodicIntervalSet* get(const DataDistribution& dist, std::int64_t processors,
                                      std::int64_t pe, std::int64_t halo);

 private:
  using Key = std::tuple<int, std::int64_t, std::int64_t, std::int64_t, std::int64_t>;
  std::map<Key, std::unique_ptr<const sym::PeriodicIntervalSet>> cache_;
};

/// Counts every access of reference `ref` of phase `phase` in closed form
/// and adds them to `tally`: the array's slot, and the executing processor
/// (CYCLIC(chunk) executor of the parallel index; PE 0 for serial phases).
/// Returns false when the region cannot be collapsed; `tally` may then hold
/// partial counts. Charges the current budget one step per collapse node and
/// per enumerated iteration, and gives up when it refuses. Throws
/// AnalysisError when a bound or subscript is not integral.
[[nodiscard]] bool countReference(const ir::Program& program, const ir::Bindings& params,
                                  const ExecutionPlan& plan, std::size_t phase, std::size_t ref,
                                  const PhaseRecipe& recipe, std::int64_t processors,
                                  LocalitySets& sets, PhaseTally& tally);

/// End (exclusive) of the maximal constant-owner run containing address `a`.
[[nodiscard]] std::int64_t ownerRunEnd(const DataDistribution& d, std::int64_t a);

/// Calls fn(begin, end, src, dst) for consecutive runs covering [begin, end)
/// over which both owners stay constant: each run ends where either
/// distribution's owner run ends, so O(runs) work instead of O(elements).
template <class Fn>
void forEachOwnerRun(const DataDistribution& from, const DataDistribution& to,
                     std::int64_t processors, std::int64_t begin, std::int64_t end, Fn&& fn) {
  std::int64_t a = begin;
  while (a < end) {
    const std::int64_t runEnd = std::min({ownerRunEnd(from, a), ownerRunEnd(to, a), end});
    fn(a, runEnd, from.owner(a, processors), to.owner(a, processors));
    a = runEnd;
  }
}

/// Words and aggregated messages (distinct (src, dst) pairs) of moving
/// `size` elements from `from` to `to`: one walk over the joint ownership
/// period, scaled, plus the remainder.
void countRedistribution(const DataDistribution& from, const DataDistribution& to,
                         std::int64_t size, std::int64_t processors, std::int64_t& words,
                         std::int64_t& messages);

}  // namespace ad::dsm
