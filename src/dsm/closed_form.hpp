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

/// Period after which an owner-bearing distribution's owner pattern repeats.
[[nodiscard]] std::int64_t ownerPeriod(const DataDistribution& d, std::int64_t processors);

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

/// The joint owner period of a redistribution of [0, size): both owner maps
/// repeat every `lambda` elements, so the array is `repeats` copies of
/// [0, lambda) followed by the tail [tailBegin(), size). lambda is
/// min(size, lcm of the two owner periods), or size when the lcm overflows.
struct OwnerPeriod {
  std::int64_t lambda = 0;
  std::int64_t repeats = 0;
  std::int64_t runsWalked = 0;  ///< owner runs the walk visited

  [[nodiscard]] std::int64_t tailBegin() const noexcept { return lambda * repeats; }
};

[[nodiscard]] OwnerPeriod jointOwnerPeriod(const DataDistribution& from,
                                           const DataDistribution& to, std::int64_t size,
                                           std::int64_t processors);

/// The one owner-run pass of a redistribution: calls
/// fn(begin, end, src, dst, inTail) for the runs of one joint period
/// [0, lambda), then for those of the tail [R * lambda, size). The runs of the
/// other R - 1 period copies are the first copy's, shifted, so the work
/// depends on lambda, not on size.
template <class Fn>
OwnerPeriod walkOwnerPeriod(const DataDistribution& from, const DataDistribution& to,
                            std::int64_t size, std::int64_t processors, Fn&& fn) {
  OwnerPeriod p = jointOwnerPeriod(from, to, size, processors);
  const auto visit = [&](bool inTail) {
    return [&, inTail](std::int64_t b, std::int64_t e, std::int64_t src, std::int64_t dst) {
      ++p.runsWalked;
      fn(b, e, src, dst, inTail);
    };
  };
  forEachOwnerRun(from, to, processors, 0, p.lambda, visit(false));
  forEachOwnerRun(from, to, processors, p.tailBegin(), size, visit(true));
  return p;
}

/// Words and aggregated messages (distinct (src, dst) pairs) of moving
/// `size` elements from `from` to `to`, read from walkOwnerPeriod.
void countRedistribution(const DataDistribution& from, const DataDistribution& to,
                         std::int64_t size, std::int64_t processors, std::int64_t& words,
                         std::int64_t& messages);

}  // namespace ad::dsm
