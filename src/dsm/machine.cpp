#include "dsm/machine.hpp"

#include <algorithm>
#include <sstream>

#include "dsm/closed_form.hpp"
#include "obs/obs.hpp"
#include "support/budget.hpp"
#include "support/checked_int.hpp"
#include "support/diagnostics.hpp"
#include "support/fault.hpp"

namespace ad::dsm {

// ---------------------------------------------------------------------------
// Distributions
// ---------------------------------------------------------------------------

DataDistribution DataDistribution::blockCyclic(std::int64_t block) {
  AD_REQUIRE(block >= 1, "block size must be positive");
  return DataDistribution{Kind::kBlockCyclic, block};
}

DataDistribution DataDistribution::blocked(std::int64_t arraySize, std::int64_t processors) {
  return blockCyclic(std::max<std::int64_t>(1, ceilDiv(arraySize, processors)));
}

DataDistribution DataDistribution::foldedBlockCyclic(std::int64_t block, std::int64_t fold) {
  AD_REQUIRE(block >= 1 && fold >= 1, "bad folded distribution parameters");
  return DataDistribution{Kind::kFoldedBlockCyclic, block, fold};
}

DataDistribution DataDistribution::replicated() {
  return DataDistribution{Kind::kReplicated, 1, 0};
}

DataDistribution DataDistribution::privatePerPE() {
  return DataDistribution{Kind::kPrivate, 1, 0};
}

std::int64_t DataDistribution::owner(std::int64_t addr, std::int64_t processors) const {
  AD_REQUIRE(hasOwner(), "owner() requires an owner-bearing distribution");
  AD_REQUIRE(addr >= 0, "negative address");
  std::int64_t a = addr;
  if (kind == Kind::kFoldedBlockCyclic) {
    const std::int64_t m = addr % fold;
    a = std::min(m, fold - m);
  }
  return (a / block) % processors;
}

bool DataDistribution::isLocal(std::int64_t addr, std::int64_t pe, std::int64_t processors,
                               std::int64_t halo) const {
  if (!hasOwner()) return true;  // replicated / private copies
  if (owner(addr, processors) == pe) return true;
  if (halo <= 0) return false;
  // Replicated halos: pe also holds copies of the `halo` elements adjacent
  // to each of its blocks (checked on the folded address for folded kinds).
  // A halo deeper than one block — multi-row sliding windows — reaches
  // across several neighbouring blocks; past a full period it covers
  // everything. Must mirror sym::localIntervals exactly (the differential
  // oracles compare byte for byte).
  std::int64_t a = addr;
  if (kind == Kind::kFoldedBlockCyclic) {
    const std::int64_t m = addr % fold;
    a = std::min(m, fold - m);
  }
  const std::int64_t period = block * processors;
  const std::int64_t hl = std::min(halo, period);
  // Distance forward from the end of pe's block to `a`, and backward from
  // the start of pe's block, both within the period.
  if (euclidMod(a - (pe + 1) * block, period) < hl) return true;
  if (euclidMod(pe * block - 1 - a, period) < hl) return true;
  return false;
}

std::int64_t IterationDistribution::executor(std::int64_t iter, std::int64_t processors) const {
  AD_REQUIRE(chunk >= 1, "chunk must be positive");
  AD_REQUIRE(iter >= 0, "negative iteration");
  return (iter / chunk) % processors;
}

// ---------------------------------------------------------------------------
// Result accounting
// ---------------------------------------------------------------------------

double SimulationResult::parallelTime() const {
  double t = 0.0;
  for (const auto& p : phases) t += p.time;
  for (const auto& r : redistributions) t += r.time;
  return t;
}

double SimulationResult::sequentialTime() const {
  double t = 0.0;
  for (const auto& p : phases) t += p.seqTime;
  return t;
}

std::int64_t PhaseCounts::local() const {
  std::int64_t n = 0;
  for (const auto& [_, c] : arrays) n += c.local;
  return n;
}

std::int64_t PhaseCounts::remote() const {
  std::int64_t n = 0;
  for (const auto& [_, c] : arrays) n += c.remote;
  return n;
}

TrafficTotals ObservedTrace::totals() const {
  TrafficTotals t;
  for (const auto& p : phases) {
    for (const auto& [_, c] : p.arrays) {
      t.local += c.local;
      t.remote += c.remote;
      t.remoteBytes += c.remoteBytes;
    }
  }
  for (const auto& r : redistributions) {
    (r.frontier ? t.frontierWords : t.redistributedWords) += r.wordsMoved;
  }
  return t;
}

double ObservedTrace::localFraction() const {
  const TrafficTotals t = totals();
  return t.accesses() == 0 ? 1.0
                           : static_cast<double>(t.local) / static_cast<double>(t.accesses());
}

std::string ObservedTrace::str() const {
  std::ostringstream os;
  for (const auto& p : phases) {
    os << "  " << p.phase << ":";
    for (const auto& [array, c] : p.arrays) {
      os << " " << array << "(local=" << c.local << ",remote=" << c.remote << ")";
    }
    os << "\n";
  }
  for (const auto& r : redistributions) {
    os << "  " << (r.frontier ? "frontier " : "redistribute ") << r.array << " before phase "
       << r.beforePhase + 1 << ": words=" << r.wordsMoved << " msgs=" << r.messages << "\n";
  }
  return os.str();
}

std::int64_t SimulationResult::totalRemoteAccesses() const {
  std::int64_t n = 0;
  for (const auto& p : phases) n += p.remoteAccesses;
  return n;
}

std::string SimulationResult::str() const {
  std::ostringstream os;
  for (const auto& p : phases) {
    os << "  " << p.phase << ": local=" << p.localAccesses << " remote=" << p.remoteAccesses
       << " time=" << p.time << "\n";
  }
  for (const auto& r : redistributions) {
    os << "  " << (r.frontier ? "frontier " : "redistribute ") << r.array << " before phase " << r.beforePhase + 1
       << ": words=" << r.wordsMoved << " msgs=" << r.messages << " time=" << r.time << "\n";
  }
  os << "  T_par=" << parallelTime() << " T_seq=" << sequentialTime()
     << " speedup=" << speedup() << "\n";
  return os.str();
}

// ---------------------------------------------------------------------------
// Plans
// ---------------------------------------------------------------------------

ExecutionPlan ExecutionPlan::naiveBlock(const ir::Program& program, const ir::Bindings& params,
                                        std::int64_t processors) {
  ExecutionPlan plan;
  for (const auto& ph : program.phases()) {
    const std::int64_t trip = ir::parallelTripCount(ph, params);
    plan.iteration.push_back(
        IterationDistribution{std::max<std::int64_t>(1, ceilDiv(trip, processors))});
  }
  for (const auto& arr : program.arrays()) {
    const Rational sz = arr.size.evaluate(params);
    const auto dist = DataDistribution::blocked(sz.asInteger(), processors);
    plan.data[arr.name] = std::vector<DataDistribution>(program.phases().size(), dist);
  }
  return plan;
}

// ---------------------------------------------------------------------------
// Simulation
// ---------------------------------------------------------------------------

bool redistributionMovesData(const ir::Program& program, const std::string& array,
                             std::size_t phase) {
  for (std::size_t k = phase; k < program.phases().size(); ++k) {
    const ir::Phase& ph = program.phase(k);
    if (ph.isPrivatized(array)) continue;  // scratch use: old values irrelevant
    if (!ph.accesses(array)) continue;
    return ph.reads(array);  // first real use: reads need the old values
  }
  return false;  // never used again
}

std::optional<RedistributionStats> frontierRefresh(const ir::Program& program,
                                                   const ir::Bindings& params,
                                                   const ExecutionPlan& plan,
                                                   const ir::ArrayDecl& array, std::size_t phase) {
  const auto hit = plan.halo.find(array.name);
  if (hit == plan.halo.end() || hit->second[phase] <= 0) return std::nullopt;
  const ir::Phase& reader = program.phase(phase);
  if (!reader.reads(array.name) || reader.isPrivatized(array.name)) return std::nullopt;
  const bool writtenElsewhere =
      std::any_of(program.phases().begin(), program.phases().end(), [&](const ir::Phase& other) {
        return &other != &reader && other.writes(array.name) && !other.isPrivatized(array.name);
      });
  if (!writtenElsewhere) return std::nullopt;
  const DataDistribution& dist = plan.data.at(array.name)[phase];
  if (!dist.hasOwner()) return std::nullopt;
  const std::int64_t size = ir::evalInt(array.size, params, "array size");
  const std::int64_t boundaries = std::max<std::int64_t>(0, ceilDiv(size, dist.block) - 1);
  RedistributionStats rs;
  rs.array = array.name;
  rs.beforePhase = phase;
  rs.frontier = true;
  rs.wordsMoved = 2 * hit->second[phase] * boundaries;  // both directions
  rs.messages = 2 * boundaries;
  if (rs.wordsMoved <= 0) return std::nullopt;
  return rs;
}

namespace {

/// Cost of one aggregated communication event. Aggregated puts proceed in
/// parallel across processors: the critical path carries ~1/H of the volume
/// and messages.
double putTime(const RedistributionStats& rs, const MachineParams& machine) {
  return (static_cast<double>(rs.messages) * machine.putLatency +
          static_cast<double>(rs.wordsMoved) * machine.perWord) /
         static_cast<double>(machine.processors);
}

using RedistributionCounter = void (*)(const DataDistribution&, const DataDistribution&,
                                       std::int64_t, std::int64_t, std::int64_t&,
                                       std::int64_t&);

/// Words and messages of one redistribution, element by element: the
/// replay's twin of countRedistribution.
void enumerateRedistribution(const DataDistribution& from, const DataDistribution& to,
                             std::int64_t size, std::int64_t processors, std::int64_t& words,
                             std::int64_t& messages) {
  std::vector<char> paired(static_cast<std::size_t>(processors * processors), 0);
  words = 0;
  messages = 0;
  for (std::int64_t a = 0; a < size; ++a) {
    const std::int64_t src = from.owner(a, processors);
    const std::int64_t dst = to.owner(a, processors);
    if (src == dst) continue;
    ++words;
    char& seen = paired[static_cast<std::size_t>(src * processors + dst)];
    messages += seen == 0 ? 1 : 0;
    seen = 1;
  }
}

std::optional<RedistributionStats> redistributionBefore(const ir::Program& program,
                                                        const ir::Bindings& params,
                                                        const ExecutionPlan& plan,
                                                        const ir::ArrayDecl& array,
                                                        std::size_t phase,
                                                        std::int64_t processors,
                                                        RedistributionCounter count) {
  if (phase == 0) return std::nullopt;
  const auto it = plan.data.find(array.name);
  if (it == plan.data.end()) return std::nullopt;
  const DataDistribution& prev = it->second[phase - 1];
  const DataDistribution& next = it->second[phase];
  if (prev == next) return std::nullopt;
  // Entering/leaving private scratch moves no shared data.
  if (!prev.hasOwner() || !next.hasOwner()) return std::nullopt;
  // Dead values: re-allocation only, no copies.
  if (!redistributionMovesData(program, array.name, phase)) return std::nullopt;
  RedistributionStats rs;
  rs.array = array.name;
  rs.beforePhase = phase;
  count(prev, next, ir::evalInt(array.size, params, "array size"), processors, rs.wordsMoved,
        rs.messages);
  if (rs.wordsMoved == 0) return std::nullopt;
  return rs;
}

/// Charges one phase's counts. Cycles are count x cost, once per processor
/// per phase: compute work scales with the phase's per-access weight, and
/// remoteness adds a flat network penalty on top.
PhaseReplay chargePhase(const ir::Phase& ph, const PhaseRecipe& recipe, const PhaseTally& tally,
                        const MachineParams& machine) {
  const double localCost = machine.localAccess * ph.workPerAccess();
  const double remoteCost = localCost + machine.remoteAccess;
  PhaseReplay out;
  PhaseStats& ps = out.stats;
  ps.phase = ph.name();
  std::int64_t accesses = 0;
  for (const PeCounts& pe : tally.pes) {
    ps.peTime.push_back(static_cast<double>(pe.local) * localCost +
                        static_cast<double>(pe.remote) * remoteCost);
    accesses += pe.local + pe.remote;
  }
  ps.time = *std::max_element(ps.peTime.begin(), ps.peTime.end());
  ps.seqTime = static_cast<double>(accesses) * localCost;
  out.counts.phase = ph.name();
  for (std::size_t slot = 0; slot < recipe.arrays.size(); ++slot) {
    ps.localAccesses += tally.arrays[slot].local;
    ps.remoteAccesses += tally.arrays[slot].remote;
    out.counts.arrays.emplace(recipe.arrays[slot], tally.arrays[slot]);
  }
  return out;
}

/// Phase `phase` in closed form, or replayed when one of its regions does
/// not collapse or an injected "symval.region" fault fires (the result is
/// exact either way). Adds the phase's regions to `result`'s region tally.
PhaseReplay closedFormPhase(const ir::Program& program, const ir::Bindings& params,
                            const MachineParams& machine, const ExecutionPlan& plan,
                            std::size_t phase, LocalitySets& sets, SimulationResult& result) {
  support::throwIfCancelled();
  const PhaseRecipe recipe = phaseRecipe(program, plan, phase);
  PhaseTally tally(recipe.arrays.size(), machine.processors);
  bool collapsed = true;
  for (std::size_t i = 0; i < recipe.refs.size() && collapsed; ++i) {
    if (AD_FAULT_POINT("symval.region")) {
      support::recordDegradation("symval.region",
                                 "phase=" + program.phase(phase).name() +
                                     " array=" + recipe.arrays[recipe.refs[i].slot],
                                 "phase replayed", "fault");
      collapsed = false;
      break;
    }
    try {
      collapsed = countReference(program, params, plan, phase, i, recipe, machine.processors,
                                 sets, tally);
    } catch (const AnalysisError&) {
      collapsed = false;  // a non-integral form: the replay settles (or reports) it
    }
  }
  const auto regions = static_cast<std::int64_t>(recipe.refs.size());
  if (!collapsed) {
    support::throwIfCancelled();  // a refused budget step may mean the caller cancelled
    obs::metrics().counter("ad.dsm.phases_replayed").add(1);
    result.enumeratedRegions += regions;
    return replayPhase(program, params, machine, plan, phase);
  }
  obs::metrics().counter("ad.dsm.phases_closed_form").add(1);
  result.closedFormRegions += regions;
  return chargePhase(program.phase(phase), recipe, tally, machine);
}

/// Runs the phases in order with the communication between them; phases are
/// counted in closed form or replayed, redistributions counted by owner runs
/// or element by element.
SimulationResult run(const ir::Program& program, const ir::Bindings& params,
                     const MachineParams& machine, const ExecutionPlan& plan, bool closedForm) {
  AD_REQUIRE(plan.iteration.size() == program.phases().size(),
             "plan must cover every phase");
  const std::int64_t H = machine.processors;
  SimulationResult result;
  LocalitySets sets;
  // The observed trace lists global redistributions after every frontier
  // refresh; they are collected here and appended at the end.
  std::vector<RedistributionStats> observedGlobals;

  for (std::size_t k = 0; k < program.phases().size(); ++k) {
    // Redistributions: any array whose distribution changes entering phase k.
    for (const auto& arr : program.arrays()) {
      auto rs = redistributionBefore(program, params, plan, arr, k, H,
                                     closedForm ? countRedistribution : enumerateRedistribution);
      if (!rs) continue;
      observedGlobals.push_back(*rs);
      rs->time = putTime(*rs, machine);
      result.redistributions.push_back(std::move(*rs));
    }

    // Frontier refreshes: before a phase reading an array through a halo,
    // the owners push the replicated overlap regions (aggregated puts). With
    // a single processor every block boundary is intra-processor — the
    // "refresh" would be a self-put moving nothing over the network — so the
    // cost model charges it only for H >= 2 (global redistributions get this
    // for free from their src == dst owner check). The observed trace still
    // lists it.
    for (const auto& arr : program.arrays()) {
      auto rs = frontierRefresh(program, params, plan, arr, k);
      if (!rs) continue;
      result.observed.redistributions.push_back(*rs);
      if (H > 1) {
        rs->time = putTime(*rs, machine);
        result.redistributions.push_back(std::move(*rs));
      }
    }

    PhaseReplay phase = closedForm
                            ? closedFormPhase(program, params, machine, plan, k, sets, result)
                            : replayPhase(program, params, machine, plan, k);
    result.phases.push_back(std::move(phase.stats));
    result.observed.phases.push_back(std::move(phase.counts));
  }
  for (auto& rs : observedGlobals) result.observed.redistributions.push_back(std::move(rs));
  return result;
}

}  // namespace

PhaseReplay replayPhase(const ir::Program& program, const ir::Bindings& params,
                        const MachineParams& machine, const ExecutionPlan& plan,
                        std::size_t phase) {
  const ir::Phase& ph = program.phase(phase);
  obs::Span span("dsm.phase:" + ph.name(), "dsm");
  const std::int64_t H = machine.processors;
  const PhaseRecipe recipe = phaseRecipe(program, plan, phase);
  PhaseTally tally(recipe.arrays.size(), H);
  const IterationDistribution& sched = plan.iteration[phase];
  const bool parallel = ph.hasParallelLoop();
  std::int64_t accesses = 0;
  ir::forEachAccess(program, ph, params, [&](const ir::ConcreteAccess& acc, const ir::Bindings&) {
    // A cancelled request stops within 4096 accesses, not after the phase.
    if ((accesses++ & 0xFFF) == 0) support::throwIfCancelled();
    const RefRecipe& rr = recipe.refs[static_cast<std::size_t>(acc.ref - ph.refs().data())];
    const std::int64_t pe = parallel ? sched.executor(acc.parallelIter, H) : 0;
    ArrayCounts& c = tally.arrays[rr.slot];
    PeCounts& p = tally.pes[static_cast<std::size_t>(pe)];
    if (rr.dist == nullptr || rr.dist->isLocal(acc.address, pe, H, rr.halo)) {
      ++p.local;
      ++c.local;
    } else {
      ++p.remote;
      ++c.remote;
      c.remoteBytes += kWordBytes;
    }
  });
  return chargePhase(ph, recipe, tally, machine);
}

SimulationResult simulate(const ir::Program& program, const ir::Bindings& params,
                          const MachineParams& machine, const ExecutionPlan& plan) {
  obs::Span span("dsm.simulate");
  // A budget of its own, with no step or deadline limits: the cost model
  // charges the caller's analysis budget nothing and degrades only on an
  // injected fault, yet a cancelled caller still stops it (the token is
  // shared). Without a token there is nothing to observe, and no budget at
  // all is the cheapest.
  const support::Budget* caller = support::Budget::current();
  std::optional<support::Budget> own;
  if (caller != nullptr && caller->cancelToken() != nullptr) {
    own.emplace(support::BudgetLimits{}, caller->cancelToken());
  }
  support::BudgetScope scope(own ? &*own : nullptr);
  return run(program, params, machine, plan, /*closedForm=*/true);
}

SimulationResult replay(const ir::Program& program, const ir::Bindings& params,
                        const MachineParams& machine, const ExecutionPlan& plan) {
  obs::Span span("dsm.replay");
  return run(program, params, machine, plan, /*closedForm=*/false);
}

}  // namespace ad::dsm
