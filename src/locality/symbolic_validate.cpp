#include "locality/symbolic_validate.hpp"

#include <algorithm>
#include <chrono>
#include <functional>
#include <map>
#include <memory>
#include <set>
#include <sstream>
#include <tuple>
#include <utility>
#include <vector>

#include "obs/obs.hpp"
#include "support/budget.hpp"
#include "support/checked_int.hpp"
#include "support/diagnostics.hpp"
#include "support/fault.hpp"
#include "symbolic/interval_set.hpp"

namespace ad::loc {

namespace {

using sym::ArithmeticProgression;
using sym::PeriodicIntervalSet;

/// Numeric-expansion caps: a loop the merge rules cannot collapse is unrolled
/// only up to this trip count, and a region's progression list is bounded, so
/// adversarial nests degrade to the enumerating oracle instead of exploding.
constexpr std::int64_t kEnumLoopCap = 1 << 14;
constexpr std::size_t kApListCap = 1 << 13;

std::int64_t evalInt(const sym::Expr& e, const ir::Bindings& bindings, const char* what) {
  const Rational r = e.evaluate(bindings);
  if (!r.isInteger()) throw AnalysisError(std::string(what) + " is not integral");
  return r.asInteger();
}

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
/// outer indices) bindings. nullopt = Unknown; the caller degrades.
std::optional<ApList> collapseTail(const std::vector<ir::Loop>& loops, std::size_t depth,
                                   const sym::Expr& subscript, ir::Bindings& bindings) {
  if (!support::budgetStep()) return std::nullopt;
  if (depth == loops.size()) {
    const std::int64_t addr = evalInt(subscript, bindings, "subscript");
    return ApList{{ArithmeticProgression::make(addr, 0, 1, 1)}};
  }
  const ir::Loop& loop = loops[depth];
  const std::int64_t lo = evalInt(loop.lower, bindings, "loop lower bound");
  const std::int64_t hi = evalInt(loop.upper, bindings, "loop upper bound");
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
// Locality sets, cached per (distribution, halo, pe)
// ---------------------------------------------------------------------------

class SetCache {
 public:
  /// nullptr means the folded expansion was refused (caller degrades).
  const PeriodicIntervalSet* get(const dsm::DataDistribution& dist, std::int64_t processors,
                                 std::int64_t pe, std::int64_t halo) {
    const Key key{static_cast<int>(dist.kind), dist.block, dist.fold, halo, pe};
    auto it = cache_.find(key);
    if (it == cache_.end()) {
      std::shared_ptr<const PeriodicIntervalSet> set;
      if (dist.kind == dsm::DataDistribution::Kind::kBlockCyclic) {
        set = std::make_shared<const PeriodicIntervalSet>(
            sym::localIntervals(dist.block, processors, pe, halo));
      } else {
        auto folded = sym::foldedLocalIntervals(dist.block, dist.fold, processors, pe, halo);
        if (folded) set = std::make_shared<const PeriodicIntervalSet>(std::move(*folded));
      }
      it = cache_.emplace(key, std::move(set)).first;
    }
    return it->second.get();
  }

 private:
  using Key = std::tuple<int, std::int64_t, std::int64_t, std::int64_t, std::int64_t>;
  std::map<Key, std::shared_ptr<const PeriodicIntervalSet>> cache_;
};

// ---------------------------------------------------------------------------
// Per-phase access counting
// ---------------------------------------------------------------------------

/// Classification recipe of one reference, mirroring dsm::replayPhase's.
struct RefInfo {
  std::size_t slot = 0;
  bool privatized = false;
  const dsm::DataDistribution* dist = nullptr;  ///< null: privatized
  std::int64_t halo = 0;                        ///< reads only (Theorem 1c)

  [[nodiscard]] bool alwaysLocal() const {
    return privatized || dist == nullptr || !dist->hasOwner();
  }
};

std::int64_t countApsIn(const ApList& aps, const PeriodicIntervalSet* set,
                        std::int64_t shift) {
  std::int64_t local = 0;
  for (ArithmeticProgression ap : aps.aps) {
    ap.base = checkedAdd(ap.base, shift);
    local = checkedAdd(local, set == nullptr ? ap.total() : set->countAP(ap));
  }
  return local;
}

/// Counts one reference of a phase *without* a parallel loop: every access
/// runs on processor 0 (the simulator's convention for serial phases).
bool countSerialRegion(const ir::Phase& phase, const ir::ArrayRef& ref, const RefInfo& info,
                       const ir::Bindings& params, std::int64_t processors, SetCache& sets,
                       dsm::ArrayCounts& out) {
  ir::Bindings bindings = params;
  const auto aps = collapseTail(phase.loops(), 0, ref.subscript, bindings);
  if (!aps) return false;
  const PeriodicIntervalSet* set = nullptr;
  if (!info.alwaysLocal()) {
    set = sets.get(*info.dist, processors, 0, info.halo);
    if (set == nullptr) return false;
  }
  const std::int64_t total = aps->total();
  const std::int64_t local = countApsIn(*aps, set, 0);
  out.local += local;
  out.remote += total - local;
  out.remoteBytes += (total - local) * dsm::kWordBytes;
  return true;
}

/// Counts one reference of a DOALL phase. The parallel index both selects the
/// executing processor (CYCLIC(chunk) schedule) and shifts the tail region;
/// when the shift is uniform the per-iteration counts are periodic with
/// period lcm(chunk * H, ownershipPeriod / gcd(|shift|, ownershipPeriod)),
/// so the whole loop costs one period plus a remainder — independent of the
/// trip count.
bool countParallelRegion(const ir::Phase& phase, const ir::ArrayRef& ref, const RefInfo& info,
                         const ir::Bindings& params, const dsm::IterationDistribution& sched,
                         std::int64_t processors, SetCache& sets, dsm::ArrayCounts& out) {
  const std::size_t parPos = phase.parallelLoopPos();
  const std::vector<ir::Loop>& loops = phase.loops();
  const sym::SymbolId parSym = loops[parPos].index;

  ir::Bindings bindings = params;
  const std::function<bool(std::size_t)> run = [&](std::size_t depth) -> bool {
    if (depth < parPos) {
      const std::int64_t lo = evalInt(loops[depth].lower, bindings, "loop lower bound");
      const std::int64_t hi = evalInt(loops[depth].upper, bindings, "loop upper bound");
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

    const std::int64_t lo = evalInt(loops[parPos].lower, bindings, "parallel lower bound");
    const std::int64_t hi = evalInt(loops[parPos].upper, bindings, "parallel upper bound");
    const std::int64_t trip = hi - lo + 1;
    if (trip <= 0) return true;
    if (lo < 0) return false;  // the oracle rejects negative iterations; match it there

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
      const std::int64_t total = checkedMul(perIter, trip);
      if (info.alwaysLocal()) {
        out.local += total;
        return true;
      }
      const std::int64_t period = info.dist->kind == dsm::DataDistribution::Kind::kBlockCyclic
                                      ? checkedMul(info.dist->block, processors)
                                      : info.dist->fold;
      const std::int64_t chunkH = checkedMul(sched.chunk, processors);
      const std::int64_t smod = euclidMod(shift, period);
      const std::int64_t shiftPeriod = smod == 0 ? 1 : period / gcd64(smod, period);
      std::int64_t lambda = trip;  // fall back to full enumeration of iterations
      if (const auto l = tryMul(chunkH / gcd64(chunkH, shiftPeriod), shiftPeriod);
          l && *l > 0) {
        lambda = std::min<std::int64_t>(trip, *l);
      }
      const bool periodic = lambda < trip;
      const std::int64_t rem = periodic ? trip % lambda : 0;
      std::int64_t cycleLocal = 0;
      std::int64_t remLocal = 0;
      for (std::int64_t u = 0; u < lambda; ++u) {
        if (!support::budgetStep()) return false;
        const std::int64_t pe = sched.executor(lo + u, processors);
        const PeriodicIntervalSet* set = sets.get(*info.dist, processors, pe, info.halo);
        if (set == nullptr) return false;
        const std::int64_t l = countApsIn(*aps0, set, checkedMul(shift, u));
        cycleLocal = checkedAdd(cycleLocal, l);
        if (periodic && u < rem) remLocal = checkedAdd(remLocal, l);
      }
      const std::int64_t local =
          periodic ? checkedAdd(checkedMul(cycleLocal, trip / lambda), remLocal) : cycleLocal;
      out.local += local;
      out.remote += total - local;
      out.remoteBytes += (total - local) * dsm::kWordBytes;
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
      const std::int64_t total = aps->total();
      std::int64_t local = total;
      if (!info.alwaysLocal()) {
        const std::int64_t pe = sched.executor(v, processors);
        const PeriodicIntervalSet* set = sets.get(*info.dist, processors, pe, info.halo);
        if (set == nullptr) return false;
        local = countApsIn(*aps, set, 0);
      }
      out.local += local;
      out.remote += total - local;
      out.remoteBytes += (total - local) * dsm::kWordBytes;
    }
    return true;
  };
  return run(0);
}

// ---------------------------------------------------------------------------
// Redistribution counting: exact owner-run walk over one pattern period
// ---------------------------------------------------------------------------

std::int64_t ownerPeriod(const dsm::DataDistribution& d, std::int64_t processors) {
  return d.kind == dsm::DataDistribution::Kind::kFoldedBlockCyclic
             ? d.fold
             : checkedMul(d.block, processors);
}

/// End (exclusive) of the maximal constant-owner run containing address `a`.
std::int64_t ownerRunEnd(const dsm::DataDistribution& d, std::int64_t a) {
  if (d.kind != dsm::DataDistribution::Kind::kFoldedBlockCyclic) {
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

void walkOwnerChanges(const dsm::DataDistribution& prev, const dsm::DataDistribution& next,
                      std::int64_t processors, std::int64_t limit, std::int64_t& words,
                      std::set<std::pair<std::int64_t, std::int64_t>>& pairs) {
  std::int64_t a = 0;
  while (a < limit) {
    const std::int64_t src = prev.owner(a, processors);
    const std::int64_t dst = next.owner(a, processors);
    const std::int64_t end =
        std::min({ownerRunEnd(prev, a), ownerRunEnd(next, a), limit});
    if (src != dst) {
      words += end - a;
      pairs.insert({src, dst});
    }
    a = end;
  }
}

void countRedistribution(const dsm::DataDistribution& prev, const dsm::DataDistribution& next,
                         std::int64_t size, std::int64_t processors, std::int64_t& words,
                         std::int64_t& messages) {
  words = 0;
  std::set<std::pair<std::int64_t, std::int64_t>> pairs;
  const std::int64_t p1 = ownerPeriod(prev, processors);
  const std::int64_t p2 = ownerPeriod(next, processors);
  std::int64_t lambda = size;
  if (const auto l = tryMul(p1 / gcd64(p1, p2), p2); l && *l > 0) {
    lambda = std::min(size, *l);
  }
  if (lambda >= size) {
    walkOwnerChanges(prev, next, processors, size, words, pairs);
  } else {
    walkOwnerChanges(prev, next, processors, lambda, words, pairs);
    const std::int64_t cycles = size / lambda;
    const std::int64_t rem = size % lambda;
    words = checkedMul(words, cycles);
    std::int64_t remWords = 0;
    walkOwnerChanges(prev, next, processors, rem, remWords, pairs);
    words = checkedAdd(words, remWords);
  }
  messages = static_cast<std::int64_t>(pairs.size());
}

}  // namespace

// ---------------------------------------------------------------------------
// Entry point
// ---------------------------------------------------------------------------

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
  const std::size_t numPhases = program.phases().size();
  const auto start = std::chrono::steady_clock::now();

  SymbolicCounts result;
  result.processors = H;
  SetCache sets;

  // Global redistribution jobs, appended after all frontier events (the
  // observed trace's order, dsm::ObservedTrace).
  struct GlobalJob {
    std::string array;
    std::size_t beforePhase;
    std::int64_t size;
    const dsm::DataDistribution* prev;
    const dsm::DataDistribution* next;
  };
  std::vector<GlobalJob> jobs;

  for (std::size_t k = 0; k < numPhases; ++k) {
    const ir::Phase& phase = program.phase(k);
    obs::Span phaseSpan("symval.phase:" + phase.name(), "symval");
    const dsm::IterationDistribution& sched = plan.iteration[k];

    // Slot assignment and per-reference recipes, mirroring dsm::replayPhase.
    std::vector<std::string> slotArrays;
    std::map<std::string, std::size_t> slotOf;
    std::vector<RefInfo> refInfos;
    for (const auto& r : phase.refs()) {
      RefInfo info;
      const auto it = slotOf.find(r.array);
      if (it != slotOf.end()) {
        info.slot = it->second;
      } else {
        info.slot = slotArrays.size();
        slotOf.emplace(r.array, info.slot);
        slotArrays.push_back(r.array);
      }
      info.privatized = phase.isPrivatized(r.array);
      if (!info.privatized) {
        const auto dit = plan.data.find(r.array);
        AD_REQUIRE(dit != plan.data.end(), "plan missing array " + r.array);
        info.dist = &dit->second[k];
        if (r.kind == ir::AccessKind::kRead) {
          if (auto hit = plan.halo.find(r.array); hit != plan.halo.end()) {
            info.halo = hit->second[k];
          }
        }
      }
      refInfos.push_back(info);
    }

    if (k > 0) {
      for (const auto& arr : program.arrays()) {
        const auto it = plan.data.find(arr.name);
        if (it == plan.data.end()) continue;
        const dsm::DataDistribution& prev = it->second[k - 1];
        const dsm::DataDistribution& next = it->second[k];
        if (prev == next) continue;
        if (!prev.hasOwner() || !next.hasOwner()) continue;
        if (!dsm::redistributionMovesData(program, arr.name, k)) continue;
        const std::int64_t size = evalInt(arr.size, params, "array size");
        jobs.push_back(GlobalJob{arr.name, k, size, &prev, &next});
      }
    }

    // Frontier refreshes: the same closed form the replay records.
    for (const auto& arr : program.arrays()) {
      if (auto rs = dsm::frontierRefresh(program, params, plan, arr, k)) {
        result.observed.redistributions.push_back(std::move(*rs));
      }
    }

    // Closed-form access counting, with per-(phase, array) degradation to the
    // enumerating oracle on Unknown regions.
    std::vector<dsm::ArrayCounts> slots(slotArrays.size());
    std::map<std::size_t, std::string> degraded;  // slot -> cause
    for (std::size_t i = 0; i < phase.refs().size(); ++i) {
      const RefInfo& info = refInfos[i];
      if (degraded.count(info.slot) != 0) continue;
      if (AD_FAULT_POINT("symval.region")) {
        degraded.emplace(info.slot, "fault");
        continue;
      }
      bool ok = false;
      try {
        ok = phase.hasParallelLoop()
                 ? countParallelRegion(phase, phase.refs()[i], info, params, sched, H, sets,
                                       slots[info.slot])
                 : countSerialRegion(phase, phase.refs()[i], info, params, H, sets,
                                     slots[info.slot]);
      } catch (const AnalysisError&) {
        ok = false;  // overflow or non-integer form: the oracle settles it
      }
      if (ok) {
        ++result.closedFormRegions;
      } else {
        degraded.emplace(info.slot, support::budgetCompromised()
                                        ? support::currentDegradationCause()
                                        : "unknown-region");
      }
    }

    if (!degraded.empty()) {
      for (const auto& [slot, cause] : degraded) {
        for (std::size_t i = 0; i < refInfos.size(); ++i) {
          if (refInfos[i].slot == slot) ++result.enumeratedRegions;
        }
        support::recordDegradation("symval.region",
                                   "phase=" + phase.name() + " array=" + slotArrays[slot],
                                   "enumerated trace oracle", cause);
      }
      // The enumerating oracle's own per-phase replay settles the counts.
      dsm::MachineParams machine;
      machine.processors = H;
      const dsm::PhaseReplay replay = dsm::replayPhase(program, params, machine, plan, k);
      for (const auto& [slot, cause] : degraded) {
        slots[slot] = replay.counts.arrays.at(slotArrays[slot]);
      }
    }

    dsm::PhaseCounts pc;
    pc.phase = phase.name();
    for (std::size_t slot = 0; slot < slotArrays.size(); ++slot) {
      pc.arrays.emplace(slotArrays[slot], slots[slot]);
      result.totalAccesses += slots[slot].local + slots[slot].remote;
    }
    result.observed.phases.push_back(std::move(pc));
  }

  for (const auto& job : jobs) {
    dsm::RedistributionStats rs;
    rs.array = job.array;
    rs.beforePhase = job.beforePhase;
    countRedistribution(*job.prev, *job.next, job.size, H, rs.wordsMoved, rs.messages);
    if (rs.wordsMoved > 0) result.observed.redistributions.push_back(std::move(rs));
  }

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
