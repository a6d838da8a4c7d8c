#include "dsm/machine.hpp"

#include <algorithm>
#include <set>
#include <sstream>

#include "obs/obs.hpp"
#include "support/budget.hpp"
#include "support/checked_int.hpp"
#include "support/diagnostics.hpp"

namespace ad::dsm {

namespace {

std::int64_t evalInt(const sym::Expr& e, const ir::Bindings& params, const char* what) {
  const Rational r = e.evaluate(params);
  if (!r.isInteger()) throw AnalysisError(std::string(what) + " is not integral");
  return r.asInteger();
}

/// How one reference's accesses are classified in one phase.
struct RefRecipe {
  std::size_t slot = 0;                    ///< index into the phase's array slots
  const DataDistribution* dist = nullptr;  ///< null: privatized (always local)
  std::int64_t halo = 0;                   ///< replicated frontier width (reads only)
};

/// Cost of one aggregated communication event. Aggregated puts proceed in
/// parallel across processors: the critical path carries ~1/H of the volume
/// and messages.
double putTime(const RedistributionStats& rs, const MachineParams& machine) {
  return (static_cast<double>(rs.messages) * machine.putLatency +
          static_cast<double>(rs.wordsMoved) * machine.perWord) /
         static_cast<double>(machine.processors);
}

}  // namespace

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

std::int64_t SimulationResult::totalRemoteAccesses() const {
  std::int64_t n = 0;
  for (const auto& p : phases) n += p.remoteAccesses;
  return n;
}

std::int64_t SimulationResult::totalWordsMoved() const {
  std::int64_t n = 0;
  for (const auto& r : redistributions) n += r.wordsMoved;
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
  const std::int64_t size = evalInt(array.size, params, "array size");
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

PhaseReplay replayPhase(const ir::Program& program, const ir::Bindings& params,
                        const MachineParams& machine, const ExecutionPlan& plan,
                        std::size_t phase) {
  const ir::Phase& ph = program.phase(phase);
  obs::Span span("dsm.phase:" + ph.name(), "dsm");
  const std::int64_t H = machine.processors;

  // Per-reference recipes, so the per-access path does no map lookups.
  std::vector<std::string> slotArrays;  // distinct arrays, first-reference order
  std::vector<RefRecipe> recipes;       // parallel to ph.refs()
  for (const auto& r : ph.refs()) {
    RefRecipe rr;
    const auto seen = std::find(slotArrays.begin(), slotArrays.end(), r.array);
    rr.slot = static_cast<std::size_t>(seen - slotArrays.begin());
    if (seen == slotArrays.end()) slotArrays.push_back(r.array);
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
    recipes.push_back(rr);
  }

  PhaseReplay out;
  PhaseStats& ps = out.stats;
  ps.phase = ph.name();
  ps.peTime.assign(static_cast<std::size_t>(H), 0.0);
  std::vector<ArrayCounts> slots(slotArrays.size());
  const IterationDistribution& sched = plan.iteration[phase];
  const bool parallel = ph.hasParallelLoop();
  // Compute work scales with the phase's per-access weight; remoteness adds a
  // flat network penalty on top.
  const double localCost = machine.localAccess * ph.workPerAccess();
  const double remoteCost = localCost + machine.remoteAccess;
  std::int64_t accesses = 0;
  ir::forEachAccess(program, ph, params, [&](const ir::ConcreteAccess& acc, const ir::Bindings&) {
    // A cancelled request stops within 4096 accesses, not after the phase.
    if ((accesses++ & 0xFFF) == 0) support::throwIfCancelled();
    const RefRecipe& rr = recipes[static_cast<std::size_t>(acc.ref - ph.refs().data())];
    const std::int64_t pe = parallel ? sched.executor(acc.parallelIter, H) : 0;
    ArrayCounts& c = slots[rr.slot];
    double& peTime = ps.peTime[static_cast<std::size_t>(pe)];
    if (rr.dist == nullptr || rr.dist->isLocal(acc.address, pe, H, rr.halo)) {
      peTime += localCost;
      ++c.local;
    } else {
      peTime += remoteCost;
      ++c.remote;
      c.remoteBytes += kWordBytes;
    }
    ps.seqTime += localCost;
  });
  ps.time = *std::max_element(ps.peTime.begin(), ps.peTime.end());

  out.counts.phase = ph.name();
  for (std::size_t slot = 0; slot < slots.size(); ++slot) {
    ps.localAccesses += slots[slot].local;
    ps.remoteAccesses += slots[slot].remote;
    out.counts.arrays.emplace(slotArrays[slot], slots[slot]);
  }
  return out;
}

SimulationResult simulate(const ir::Program& program, const ir::Bindings& params,
                          const MachineParams& machine, const ExecutionPlan& plan) {
  obs::Span span("dsm.simulate");
  AD_REQUIRE(plan.iteration.size() == program.phases().size(),
             "plan must cover every phase");
  const std::int64_t H = machine.processors;
  SimulationResult result;
  // The observed trace lists global redistributions after every frontier
  // refresh; they are collected here and appended at the end.
  std::vector<RedistributionStats> observedGlobals;

  for (std::size_t k = 0; k < program.phases().size(); ++k) {
    // Redistributions: any array whose distribution changes entering phase k.
    if (k > 0) {
      for (const auto& arr : program.arrays()) {
        const auto it = plan.data.find(arr.name);
        if (it == plan.data.end()) continue;
        const DataDistribution& prev = it->second[k - 1];
        const DataDistribution& next = it->second[k];
        if (prev == next) continue;
        if (!prev.hasOwner() || !next.hasOwner()) {
          continue;  // entering/leaving private scratch moves no shared data
        }
        if (!redistributionMovesData(program, arr.name, k)) {
          continue;  // dead values: re-allocation only, no copies
        }
        RedistributionStats rs;
        rs.array = arr.name;
        rs.beforePhase = k;
        const std::int64_t size = evalInt(arr.size, params, "array size");
        std::set<std::pair<std::int64_t, std::int64_t>> pairs;
        for (std::int64_t a = 0; a < size; ++a) {
          const std::int64_t src = prev.owner(a, H);
          const std::int64_t dst = next.owner(a, H);
          if (src == dst) continue;
          ++rs.wordsMoved;
          pairs.insert({src, dst});
        }
        rs.messages = static_cast<std::int64_t>(pairs.size());
        if (rs.wordsMoved == 0) continue;
        observedGlobals.push_back(rs);
        rs.time = putTime(rs, machine);
        result.redistributions.push_back(std::move(rs));
      }
    }

    // Frontier refreshes: before a phase reading an array through a halo,
    // the owners push the replicated overlap regions (aggregated puts). With
    // a single processor every block boundary is intra-processor — the
    // "refresh" would be a self-put moving nothing over the network — so the
    // cost model charges it only for H >= 2 (the element-exact
    // redistribution loop above gets this for free from its src == dst
    // owner check). The observed trace still lists it.
    for (const auto& arr : program.arrays()) {
      auto rs = frontierRefresh(program, params, plan, arr, k);
      if (!rs) continue;
      result.observed.redistributions.push_back(*rs);
      if (H > 1) {
        rs->time = putTime(*rs, machine);
        result.redistributions.push_back(std::move(*rs));
      }
    }

    PhaseReplay replay = replayPhase(program, params, machine, plan, k);
    result.phases.push_back(std::move(replay.stats));
    result.observed.phases.push_back(std::move(replay.counts));
  }
  for (auto& rs : observedGlobals) result.observed.redistributions.push_back(std::move(rs));
  return result;
}

}  // namespace ad::dsm
