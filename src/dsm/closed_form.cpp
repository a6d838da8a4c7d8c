#include "dsm/closed_form.hpp"

#include <algorithm>
#include <functional>
#include <optional>
#include <utility>

#include "support/budget.hpp"
#include "support/checked_int.hpp"
#include "support/diagnostics.hpp"

namespace ad::dsm {

namespace {

using sym::ArithmeticProgression;
using sym::PeriodicIntervalSet;

/// Numeric-expansion caps: a loop the merge rules cannot collapse is unrolled
/// only up to this trip count, and a region's progression list is bounded, so
/// adversarial nests fall back to the replay instead of exploding.
constexpr std::int64_t kEnumLoopCap = 1 << 14;
constexpr std::size_t kApListCap = 1 << 13;

// ---------------------------------------------------------------------------
// Region collapse: loop-nest tail -> arithmetic progressions
// ---------------------------------------------------------------------------

struct ApList {
  std::vector<ArithmeticProgression> aps;

  [[nodiscard]] std::int64_t total() const {
    std::int64_t t = 0;
    for (const auto& ap : aps) t = checkedAdd(t, ap.total());
    return t;
  }
};

/// Folds one more loop around an already-collapsed inner region: every
/// iteration shifts the inner addresses by `step`. Exact merge rules only —
/// anything else replicates numerically (capped) or gives up.
std::optional<ApList> mergeLoop(const ApList& inner, std::int64_t step, std::int64_t n) {
  if (inner.aps.empty() || n == 1) return inner;
  if (step == 0) {
    ApList out = inner;
    for (auto& ap : out.aps) ap.repeat = checkedMul(ap.repeat, n);
    return out;
  }
  const std::int64_t astep = step < 0 ? -step : step;
  if (inner.aps.size() == 1) {
    const ArithmeticProgression& ap = inner.aps[0];
    // The lowest-address copy of the inner region across the n iterations.
    const std::int64_t loBase =
        step < 0 ? checkedAdd(ap.base, checkedMul(step, n - 1)) : ap.base;
    if (ap.count == 1) {
      return ApList{{ArithmeticProgression::make(loBase, astep, n, ap.repeat)}};
    }
    if (astep == checkedMul(ap.stride, ap.count)) {
      // Copies tile end to end: one longer progression.
      return ApList{{ArithmeticProgression::make(loBase, ap.stride,
                                                 checkedMul(ap.count, n), ap.repeat)}};
    }
    if (ap.stride == checkedMul(astep, n)) {
      // Copies interleave perfectly into a denser progression.
      return ApList{{ArithmeticProgression::make(loBase, astep,
                                                 checkedMul(ap.count, n), ap.repeat)}};
    }
  }
  if (n > kEnumLoopCap || inner.aps.size() * static_cast<std::size_t>(n) > kApListCap) {
    return std::nullopt;
  }
  ApList out;
  out.aps.reserve(inner.aps.size() * static_cast<std::size_t>(n));
  for (std::int64_t i = 0; i < n; ++i) {
    const std::int64_t shift = checkedMul(step, i);
    for (ArithmeticProgression ap : inner.aps) {
      ap.base = checkedAdd(ap.base, shift);
      out.aps.push_back(ap);
    }
  }
  return out;
}

/// Collapses loops[depth..] for one subscript under the given (params +
/// outer indices) bindings. nullopt = Unknown; the caller falls back.
std::optional<ApList> collapseTail(const std::vector<ir::Loop>& loops, std::size_t depth,
                                   const sym::Expr& subscript, ir::Bindings& bindings) {
  if (!support::budgetStep()) return std::nullopt;
  if (depth == loops.size()) {
    const std::int64_t addr = ir::evalInt(subscript, bindings, "subscript");
    return ApList{{ArithmeticProgression::make(addr, 0, 1, 1)}};
  }
  const ir::Loop& loop = loops[depth];
  const std::int64_t lo = ir::evalInt(loop.lower, bindings, "loop lower bound");
  const std::int64_t hi = ir::evalInt(loop.upper, bindings, "loop upper bound");
  const std::int64_t n = hi - lo + 1;
  if (n <= 0) return ApList{};

  // Merge path: the subscript is linear in this index with a coefficient
  // that is constant over the remaining tail, and no deeper bound depends on
  // this index — then every iteration is a pure shift of the inner region.
  bool mergeable = true;
  for (std::size_t d = depth + 1; d < loops.size() && mergeable; ++d) {
    mergeable = !loops[d].lower.contains(loop.index) && !loops[d].upper.contains(loop.index);
  }
  std::int64_t step = 0;
  if (mergeable) {
    const auto dec = subscript.linearDecompose(loop.index);
    if (!dec) {
      mergeable = false;
    } else {
      for (std::size_t d = depth + 1; d < loops.size() && mergeable; ++d) {
        mergeable = !dec->first.contains(loops[d].index);
      }
      if (mergeable) {
        const Rational coeff = dec->first.evaluate(bindings);
        if (coeff.isInteger()) {
          step = coeff.asInteger();
        } else {
          mergeable = false;
        }
      }
    }
  }
  if (mergeable) {
    bindings[loop.index] = lo;
    auto inner = collapseTail(loops, depth + 1, subscript, bindings);
    bindings.erase(loop.index);
    if (!inner) return std::nullopt;
    return mergeLoop(*inner, step, n);
  }

  // Numeric expansion (bounded): bounds or coefficients genuinely depend on
  // this index (triangular nests, pow2 strides under an exponent loop).
  if (n > kEnumLoopCap) return std::nullopt;
  ApList out;
  for (std::int64_t v = lo; v <= hi; ++v) {
    if (!support::budgetStep()) {
      bindings.erase(loop.index);
      return std::nullopt;
    }
    bindings[loop.index] = v;
    auto inner = collapseTail(loops, depth + 1, subscript, bindings);
    if (!inner) {
      bindings.erase(loop.index);
      return std::nullopt;
    }
    if (out.aps.size() + inner->aps.size() > kApListCap) {
      bindings.erase(loop.index);
      return std::nullopt;
    }
    out.aps.insert(out.aps.end(), inner->aps.begin(), inner->aps.end());
  }
  bindings.erase(loop.index);
  return out;
}

// ---------------------------------------------------------------------------
// Per-reference access counting
// ---------------------------------------------------------------------------

std::int64_t countApsIn(const ApList& aps, const PeriodicIntervalSet* set, std::int64_t shift) {
  std::int64_t local = 0;
  for (ArithmeticProgression ap : aps.aps) {
    ap.base = checkedAdd(ap.base, shift);
    local = checkedAdd(local, set == nullptr ? ap.total() : set->countAP(ap));
  }
  return local;
}

/// Adds `total` accesses of one array, `local` of them local, run on `pe`.
void addCounts(PhaseTally& tally, std::size_t slot, std::size_t pe, std::int64_t total,
               std::int64_t local) {
  ArrayCounts& a = tally.arrays[slot];
  a.local = checkedAdd(a.local, local);
  a.remote = checkedAdd(a.remote, total - local);
  a.remoteBytes = checkedAdd(a.remoteBytes, checkedMul(total - local, kWordBytes));
  PeCounts& p = tally.pes[pe];
  p.local = checkedAdd(p.local, local);
  p.remote = checkedAdd(p.remote, total - local);
}

/// Iterations of [lo, lo + trip) (lo >= 0) that the CYCLIC(chunk) schedule
/// runs on each processor.
std::vector<std::int64_t> iterationsPerPe(const IterationDistribution& sched, std::int64_t lo,
                                          std::int64_t trip, std::int64_t processors) {
  const std::int64_t round = checkedMul(sched.chunk, processors);
  // Iterations of [0, n) on `pe`: whole rounds plus pe's part of the last.
  const auto below = [&](std::int64_t n, std::int64_t pe) {
    return (n / round) * sched.chunk +
           std::clamp<std::int64_t>(n % round - pe * sched.chunk, 0, sched.chunk);
  };
  const std::int64_t hi = checkedAdd(lo, trip);
  std::vector<std::int64_t> out(static_cast<std::size_t>(processors));
  for (std::int64_t pe = 0; pe < processors; ++pe) {
    out[static_cast<std::size_t>(pe)] = below(hi, pe) - below(lo, pe);
  }
  return out;
}

/// Counts one reference of a phase *without* a parallel loop: every access
/// runs on processor 0 (the replay's convention for serial phases).
bool countSerialRegion(const ir::Phase& phase, const ir::ArrayRef& ref, const RefRecipe& rr,
                       const ir::Bindings& params, std::int64_t processors, LocalitySets& sets,
                       PhaseTally& tally) {
  ir::Bindings bindings = params;
  const auto aps = collapseTail(phase.loops(), 0, ref.subscript, bindings);
  if (!aps) return false;
  const PeriodicIntervalSet* set = nullptr;
  if (!rr.alwaysLocal()) {
    set = sets.get(*rr.dist, processors, 0, rr.halo);
    if (set == nullptr) return false;
  }
  addCounts(tally, rr.slot, 0, aps->total(), countApsIn(*aps, set, 0));
  return true;
}

/// Counts one reference of a DOALL phase. The parallel index both selects the
/// executing processor (CYCLIC(chunk) schedule) and shifts the tail region;
/// when the shift is uniform the per-iteration counts are periodic with
/// period lcm(chunk * H, ownershipPeriod / gcd(|shift|, ownershipPeriod)),
/// so the whole loop costs one period plus a remainder — independent of the
/// trip count.
bool countParallelRegion(const ir::Phase& phase, const ir::ArrayRef& ref, const RefRecipe& rr,
                         const ir::Bindings& params, const IterationDistribution& sched,
                         std::int64_t processors, LocalitySets& sets, PhaseTally& tally) {
  const std::size_t parPos = phase.parallelLoopPos();
  const std::vector<ir::Loop>& loops = phase.loops();
  const sym::SymbolId parSym = loops[parPos].index;

  ir::Bindings bindings = params;
  const std::function<bool(std::size_t)> run = [&](std::size_t depth) -> bool {
    if (depth < parPos) {
      const std::int64_t lo = ir::evalInt(loops[depth].lower, bindings, "loop lower bound");
      const std::int64_t hi = ir::evalInt(loops[depth].upper, bindings, "loop upper bound");
      if (hi - lo + 1 > kEnumLoopCap) return false;
      for (std::int64_t v = lo; v <= hi; ++v) {
        bindings[loops[depth].index] = v;
        if (!run(depth + 1)) {
          bindings.erase(loops[depth].index);
          return false;
        }
      }
      bindings.erase(loops[depth].index);
      return true;
    }

    const std::int64_t lo = ir::evalInt(loops[parPos].lower, bindings, "parallel lower bound");
    const std::int64_t hi = ir::evalInt(loops[parPos].upper, bindings, "parallel upper bound");
    const std::int64_t trip = hi - lo + 1;
    if (trip <= 0) return true;
    if (lo < 0) return false;  // the replay rejects negative iterations; match it there

    // Shift-uniformity: tail bounds free of the parallel index, subscript
    // linear in it with a tail-independent integer coefficient.
    bool uniform = true;
    for (std::size_t d = parPos + 1; d < loops.size() && uniform; ++d) {
      uniform = !loops[d].lower.contains(parSym) && !loops[d].upper.contains(parSym);
    }
    std::int64_t shift = 0;
    if (uniform) {
      const auto dec = ref.subscript.linearDecompose(parSym);
      if (!dec) {
        uniform = false;
      } else {
        for (std::size_t d = parPos + 1; d < loops.size() && uniform; ++d) {
          uniform = !dec->first.contains(loops[d].index);
        }
        if (uniform) {
          const Rational coeff = dec->first.evaluate(bindings);
          if (coeff.isInteger()) {
            shift = coeff.asInteger();
          } else {
            uniform = false;
          }
        }
      }
    }

    if (uniform) {
      bindings[parSym] = lo;
      const auto aps0 = collapseTail(loops, parPos + 1, ref.subscript, bindings);
      bindings.erase(parSym);
      if (!aps0) return false;
      const std::int64_t perIter = aps0->total();
      const std::vector<std::int64_t> iters = iterationsPerPe(sched, lo, trip, processors);
      std::vector<std::int64_t> peLocal(iters.size());
      if (rr.alwaysLocal()) {
        for (std::size_t pe = 0; pe < iters.size(); ++pe) {
          peLocal[pe] = checkedMul(perIter, iters[pe]);
        }
      } else {
        const std::int64_t period = ownerPeriod(*rr.dist, processors);
        const std::int64_t chunkH = checkedMul(sched.chunk, processors);
        const std::int64_t smod = euclidMod(shift, period);
        const std::int64_t shiftPeriod = smod == 0 ? 1 : period / gcd64(smod, period);
        std::int64_t lambda = trip;  // fall back to full enumeration of iterations
        if (const auto l = tryMul(chunkH / gcd64(chunkH, shiftPeriod), shiftPeriod);
            l && *l > 0) {
          lambda = std::min<std::int64_t>(trip, *l);
        }
        // Iteration lo+u recurs at lo+u+lambda on the same processor with
        // the same local count: weight u by its number of occurrences.
        const std::int64_t cycles = trip / lambda;
        const std::int64_t rem = trip % lambda;
        for (std::int64_t u = 0; u < lambda; ++u) {
          if (!support::budgetStep()) return false;
          const std::int64_t pe = sched.executor(lo + u, processors);
          const PeriodicIntervalSet* set = sets.get(*rr.dist, processors, pe, rr.halo);
          if (set == nullptr) return false;
          const std::int64_t l = countApsIn(*aps0, set, checkedMul(shift, u));
          std::int64_t& acc = peLocal[static_cast<std::size_t>(pe)];
          acc = checkedAdd(acc, checkedMul(l, cycles + (u < rem ? 1 : 0)));
        }
      }
      for (std::size_t pe = 0; pe < iters.size(); ++pe) {
        addCounts(tally, rr.slot, pe, checkedMul(perIter, iters[pe]), peLocal[pe]);
      }
      return true;
    }

    // Non-uniform (triangular bounds, parallel index inside a pow2): collapse
    // the tail afresh per iteration. Still closed-form per iteration.
    if (trip > kEnumLoopCap) return false;
    for (std::int64_t v = lo; v <= hi; ++v) {
      if (!support::budgetStep()) return false;
      bindings[parSym] = v;
      const auto aps = collapseTail(loops, parPos + 1, ref.subscript, bindings);
      bindings.erase(parSym);
      if (!aps) return false;
      const std::int64_t pe = sched.executor(v, processors);
      const PeriodicIntervalSet* set = nullptr;
      if (!rr.alwaysLocal()) {
        set = sets.get(*rr.dist, processors, pe, rr.halo);
        if (set == nullptr) return false;
      }
      addCounts(tally, rr.slot, static_cast<std::size_t>(pe), aps->total(),
                countApsIn(*aps, set, 0));
    }
    return true;
  };
  return run(0);
}

}  // namespace

PhaseRecipe phaseRecipe(const ir::Program& program, const ExecutionPlan& plan,
                        std::size_t phase) {
  const ir::Phase& ph = program.phase(phase);
  PhaseRecipe out;
  for (const auto& r : ph.refs()) {
    RefRecipe rr;
    const auto seen = std::find(out.arrays.begin(), out.arrays.end(), r.array);
    rr.slot = static_cast<std::size_t>(seen - out.arrays.begin());
    if (seen == out.arrays.end()) out.arrays.push_back(r.array);
    if (!ph.isPrivatized(r.array)) {
      const auto it = plan.data.find(r.array);
      AD_REQUIRE(it != plan.data.end(), "plan missing array " + r.array);
      rr.dist = &it->second[phase];
      // Halo replicas serve reads only (Theorem 1c: overlap must be
      // read-only to stay consistent without updates).
      if (r.kind == ir::AccessKind::kRead) {
        if (auto hit = plan.halo.find(r.array); hit != plan.halo.end()) {
          rr.halo = hit->second[phase];
        }
      }
    }
    out.refs.push_back(rr);
  }
  return out;
}

const PeriodicIntervalSet* LocalitySets::get(const DataDistribution& dist,
                                             std::int64_t processors, std::int64_t pe,
                                             std::int64_t halo) {
  const Key key{static_cast<int>(dist.kind), dist.block, dist.fold, halo, pe};
  auto it = cache_.find(key);
  if (it == cache_.end()) {
    std::unique_ptr<const PeriodicIntervalSet> set;
    if (dist.kind == DataDistribution::Kind::kBlockCyclic) {
      set = std::make_unique<const PeriodicIntervalSet>(
          sym::localIntervals(dist.block, processors, pe, halo));
    } else if (auto folded =
                   sym::foldedLocalIntervals(dist.block, dist.fold, processors, pe, halo)) {
      set = std::make_unique<const PeriodicIntervalSet>(std::move(*folded));
    }
    it = cache_.emplace(key, std::move(set)).first;
  }
  return it->second.get();
}

bool countReference(const ir::Program& program, const ir::Bindings& params,
                    const ExecutionPlan& plan, std::size_t phase, std::size_t ref,
                    const PhaseRecipe& recipe, std::int64_t processors, LocalitySets& sets,
                    PhaseTally& tally) {
  const ir::Phase& ph = program.phase(phase);
  const ir::ArrayRef& r = ph.refs()[ref];
  const RefRecipe& rr = recipe.refs[ref];
  return ph.hasParallelLoop()
             ? countParallelRegion(ph, r, rr, params, plan.iteration[phase], processors, sets,
                                   tally)
             : countSerialRegion(ph, r, rr, params, processors, sets, tally);
}

// ---------------------------------------------------------------------------
// Redistribution counting: exact owner-run walk over one pattern period
// ---------------------------------------------------------------------------

std::int64_t ownerRunEnd(const DataDistribution& d, std::int64_t a) {
  if (d.kind != DataDistribution::Kind::kFoldedBlockCyclic) {
    return (a / d.block + 1) * d.block;
  }
  const std::int64_t m = a % d.fold;
  const std::int64_t base = a - m;
  const std::int64_t half = d.fold / 2;
  if (m <= half) {
    // Ascending piece: sigma(m) = m, owner constant per block of m.
    return base + std::min(half + 1, (m / d.block + 1) * d.block);
  }
  // Descending piece: sigma(m) = fold - m decreases; owner constant while
  // sigma stays inside one block, i.e. m <= fold - c*block for c = sigma/block.
  const std::int64_t c = (d.fold - m) / d.block;
  return base + std::min(d.fold, d.fold - c * d.block + 1);
}

std::int64_t ownerPeriod(const DataDistribution& d, std::int64_t processors) {
  return d.kind == DataDistribution::Kind::kFoldedBlockCyclic ? d.fold
                                                               : checkedMul(d.block, processors);
}

OwnerPeriod jointOwnerPeriod(const DataDistribution& from, const DataDistribution& to,
                             std::int64_t size, std::int64_t processors) {
  OwnerPeriod p;
  if (size <= 0) return p;
  const std::int64_t p1 = ownerPeriod(from, processors);
  const std::int64_t p2 = ownerPeriod(to, processors);
  p.lambda = size;
  if (const auto l = tryMul(p1 / gcd64(p1, p2), p2); l && *l > 0) {
    p.lambda = std::min(size, *l);
  }
  p.repeats = size / p.lambda;
  return p;
}

void countRedistribution(const DataDistribution& from, const DataDistribution& to,
                         std::int64_t size, std::int64_t processors, std::int64_t& words,
                         std::int64_t& messages) {
  std::vector<std::int64_t> pairs;  // src * H + dst per moving run
  std::int64_t periodWords = 0;
  std::int64_t tailWords = 0;
  const OwnerPeriod p = walkOwnerPeriod(
      from, to, size, processors,
      [&](std::int64_t b, std::int64_t e, std::int64_t src, std::int64_t dst, bool inTail) {
        if (src == dst) return;
        (inTail ? tailWords : periodWords) += e - b;
        pairs.push_back(src * processors + dst);
      });
  words = checkedAdd(checkedMul(periodWords, p.repeats), tailWords);
  std::sort(pairs.begin(), pairs.end());
  messages = std::unique(pairs.begin(), pairs.end()) - pairs.begin();
}

}  // namespace ad::dsm
