// DSM machine model.
//
// A deterministic cost model of a distributed-shared-memory multiprocessor in
// the style of the paper's Cray T3D testbed: H processors, each owning a
// slice of every shared array under a BLOCK-CYCLIC(b) distribution, with
// single-sided put communication. Iterations of each parallel loop are
// scheduled CYCLIC(p) (the paper's Section 4 assumption ii).
//
// Every access is classified local/remote against the active data
// distribution and charged from MachineParams; data redistributions between
// phases (the C edges of the LCG) are executed as aggregated puts. Two
// implementations produce the same SimulationResult, byte for byte:
//
//   - simulate() derives the per-processor local/remote counts in closed form
//     from the access descriptors (dsm/closed_form): O(descriptor regions),
//     independent of the iteration counts. It is the repo's one closed-form
//     traffic pass: every plan and baseline evaluation uses it, and symbolic
//     validation (loc::symbolicTrace) reads its ObservedTrace. A phase with a
//     region the algebra cannot collapse is replayed instead — still exact,
//     and counted on ad.dsm.phases_replayed. It degrades only on an injected
//     "symval.region" fault, which replays the phase too.
//   - replay() walks the program's exact access stream (via ir::walker) once,
//     serially. It is the repo's one access enumerator, kept as the
//     differential twin of the closed form and as the trace validator's
//     enumerating oracle (sim::simulateTrace).
//
// Both count integer accesses per processor first and charge cycles once
// per phase (count x cost), so they agree exactly even for fractional
// per-access work. Both also tally the per-(phase, array) counts of an
// ObservedTrace, which the Theorem-1/2 validator consumes.
//
// Cost parameters default to published T3D ratios (remote:local latency on
// the order of 10^2, put startup on the order of 10^3 cycles); the paper's
// claim that we reproduce — >70% parallel efficiency at H = 64 with
// LCG-derived distributions — is about the *ratio* of local to remote
// traffic, which both implementations count exactly.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "ir/walker.hpp"

namespace ad::dsm {

struct MachineParams {
  std::int64_t processors = 8;
  double localAccess = 1.0;     ///< cycles per local array access
  double remoteAccess = 100.0;  ///< EXTRA cycles when the access is remote
  double putLatency = 200.0;    ///< startup cycles per aggregated put message
  double perWord = 4.0;         ///< cycles per word in an aggregated transfer
};

/// Placement of one array's elements across the processors.
///
/// kFoldedBlockCyclic is the paper's "reverse distribution" case: mirror
/// pairs (a, fold - a) — and their fold-periodic images — are co-located,
/// which makes conjugate-symmetry phases (TFFT2's DO_110) fully local.
struct DataDistribution {
  enum class Kind { kBlockCyclic, kFoldedBlockCyclic, kReplicated, kPrivate };
  Kind kind = Kind::kBlockCyclic;
  std::int64_t block = 1;  ///< BLOCK-CYCLIC block size, in elements
  std::int64_t fold = 0;   ///< mirror period/center (kFoldedBlockCyclic only)

  [[nodiscard]] static DataDistribution blockCyclic(std::int64_t block);
  /// Plain BLOCK: one contiguous slice per processor.
  [[nodiscard]] static DataDistribution blocked(std::int64_t arraySize, std::int64_t processors);
  [[nodiscard]] static DataDistribution foldedBlockCyclic(std::int64_t block, std::int64_t fold);
  [[nodiscard]] static DataDistribution replicated();
  [[nodiscard]] static DataDistribution privatePerPE();

  /// True when the distribution assigns each element to one owner.
  [[nodiscard]] bool hasOwner() const noexcept {
    return kind == Kind::kBlockCyclic || kind == Kind::kFoldedBlockCyclic;
  }
  /// Owning processor of an element (owner-bearing kinds only).
  [[nodiscard]] std::int64_t owner(std::int64_t addr, std::int64_t processors) const;
  /// Is `addr` in `pe`'s local memory? Replicated/private arrays always are.
  /// `halo` widens each owned block by replicated overlap regions on both
  /// sides (Theorem 1c's replicated sub-regions, refreshed by frontier
  /// communications).
  [[nodiscard]] bool isLocal(std::int64_t addr, std::int64_t pe, std::int64_t processors,
                             std::int64_t halo = 0) const;

  [[nodiscard]] bool operator==(const DataDistribution& o) const {
    if (kind != o.kind) return false;
    if (kind == Kind::kBlockCyclic) return block == o.block;
    if (kind == Kind::kFoldedBlockCyclic) return block == o.block && fold == o.fold;
    return true;
  }
};

/// CYCLIC(chunk) scheduling of a parallel loop.
struct IterationDistribution {
  std::int64_t chunk = 1;

  [[nodiscard]] std::int64_t executor(std::int64_t iter, std::int64_t processors) const;
};

struct PhaseStats {
  std::string phase;
  std::int64_t localAccesses = 0;
  std::int64_t remoteAccesses = 0;
  std::vector<double> peTime;  ///< per-processor busy time
  double time = 0.0;           ///< max over processors
  double seqTime = 0.0;        ///< all accesses at local cost (1 processor)
};

struct RedistributionStats {
  std::string array;
  std::size_t beforePhase = 0;  ///< communication happens before this phase
  std::int64_t wordsMoved = 0;
  std::int64_t messages = 0;  ///< after aggregation: distinct (src, dst) pairs
  double time = 0.0;
  bool frontier = false;  ///< frontier (halo refresh) rather than global
};

/// Bytes fetched by one remote access (one array element).
inline constexpr std::int64_t kWordBytes = 8;

/// Local/remote tallies of one array in one phase.
struct ArrayCounts {
  std::int64_t local = 0;
  std::int64_t remote = 0;
  std::int64_t remoteBytes = 0;  ///< bytes fetched by remote accesses
};

struct PhaseCounts {
  std::string phase;
  std::map<std::string, ArrayCounts> arrays;  ///< every array the phase references

  [[nodiscard]] std::int64_t local() const;
  [[nodiscard]] std::int64_t remote() const;
};

/// Traffic totals of an ObservedTrace, as the validators publish them.
struct TrafficTotals {
  std::int64_t local = 0;
  std::int64_t remote = 0;
  std::int64_t remoteBytes = 0;
  std::int64_t redistributedWords = 0;  ///< global redistributions
  std::int64_t frontierWords = 0;       ///< frontier (halo) refreshes

  [[nodiscard]] std::int64_t accesses() const { return local + remote; }
};

/// The communication a run observed, in the shape both validation oracles
/// produce: per-phase/per-array counts plus the communication events — all
/// frontier refreshes in phase order, then all global redistributions.
/// RedistributionStats::time is left 0 here (events are counted, not
/// charged), and frontier refreshes are listed at H = 1 too, where the cost
/// model charges none.
struct ObservedTrace {
  std::vector<PhaseCounts> phases;  ///< one per program phase
  std::vector<RedistributionStats> redistributions;

  [[nodiscard]] TrafficTotals totals() const;
  /// Local share of all accesses (1 when there are none).
  [[nodiscard]] double localFraction() const;
  /// One line per phase (per-array counts), then one per event.
  [[nodiscard]] std::string str() const;
};

struct SimulationResult {
  std::vector<PhaseStats> phases;
  std::vector<RedistributionStats> redistributions;  ///< charged, in execution order
  ObservedTrace observed;                            ///< the same run, counted
  /// simulate()'s per-(phase, reference) regions: counted in closed form, or
  /// enumerated because their phase was replayed (replay() leaves both 0).
  std::int64_t closedFormRegions = 0;
  std::int64_t enumeratedRegions = 0;

  [[nodiscard]] double parallelTime() const;
  [[nodiscard]] double sequentialTime() const;
  [[nodiscard]] double speedup() const { return sequentialTime() / parallelTime(); }
  [[nodiscard]] double efficiency(std::int64_t processors) const {
    return speedup() / static_cast<double>(processors);
  }
  [[nodiscard]] std::int64_t totalRemoteAccesses() const;

  [[nodiscard]] std::string str() const;
};

/// A full execution plan: one iteration distribution per phase, and for each
/// array the data distribution in effect during each phase (a change between
/// consecutive phases is executed as a redistribution).
struct ExecutionPlan {
  std::vector<IterationDistribution> iteration;                       // per phase
  std::map<std::string, std::vector<DataDistribution>> data;          // array -> per phase
  /// Replicated halo width per array per phase (0 = none). Reads within the
  /// halo of a processor's blocks are local; a frontier refresh is charged
  /// before each halo-reading phase whose array is written elsewhere.
  std::map<std::string, std::vector<std::int64_t>> halo;

  /// BLOCK everything: the baseline the paper's approach is compared to.
  [[nodiscard]] static ExecutionPlan naiveBlock(const ir::Program& program,
                                                const ir::Bindings& params,
                                                std::int64_t processors);
};

/// True if changing `array`'s distribution entering phase `k` must move
/// data: false when the next phase that touches the array only writes it
/// (dead values need allocation, not copying — the paper's data allocation
/// procedure). Assumes write-only phases produce the region they cover.
[[nodiscard]] bool redistributionMovesData(const ir::Program& program, const std::string& array,
                                           std::size_t phase);

/// True when a global redistribution of `array` runs before `phase`: its
/// distribution changes there between two owner-bearing placements (entering
/// or leaving private/replicated copies moves no shared data) and the values
/// are live (redistributionMovesData). The one rule the cost model charges
/// and the pipeline schedules communication by.
[[nodiscard]] bool globalRedistributionDue(const ir::Program& program, const ExecutionPlan& plan,
                                           const std::string& array, std::size_t phase);

/// Words and messages of one frontier refresh of a `size`-element array
/// under owner-bearing `dist` with a `halo`-wide replicated overlap: the
/// owners push `halo` words each way across every interior block boundary.
/// Only wordsMoved, messages and frontier are set.
[[nodiscard]] RedistributionStats frontierTraffic(std::int64_t size, const DataDistribution& dist,
                                                  std::int64_t halo);

/// The frontier refresh due before `phase` for `array`, in closed form: when
/// the phase reads the array through a replicated halo and another phase
/// writes it, frontierTraffic under the phase's distribution and halo (no
/// per-element work). nullopt when no refresh is due or it moves nothing.
/// `time` is left 0.
[[nodiscard]] std::optional<RedistributionStats> frontierRefresh(const ir::Program& program,
                                                                 const ir::Bindings& params,
                                                                 const ExecutionPlan& plan,
                                                                 const ir::ArrayDecl& array,
                                                                 std::size_t phase);

/// Cost of one aggregated communication event on machine.processors PEs.
/// Aggregated puts proceed in parallel across processors: the critical path
/// carries ~1/H of the volume and messages.
[[nodiscard]] double putTime(const RedistributionStats& rs, const MachineParams& machine);

/// One phase of the replay: per-processor time and per-array counts.
struct PhaseReplay {
  PhaseStats stats;
  PhaseCounts counts;
};

/// Walks every access of phase `phase` once, in execution order, on
/// machine.processors PEs: each parallel iteration runs on its CYCLIC(p)
/// executor and each access is classified against the plan's distribution,
/// halo and privatization, resolved once per reference. Polls the caller's
/// cancellation token every 4096 accesses.
[[nodiscard]] PhaseReplay replayPhase(const ir::Program& program, const ir::Bindings& params,
                                      const MachineParams& machine, const ExecutionPlan& plan,
                                      std::size_t phase);

/// The cost of running the program under `plan`, in closed form. Arrays
/// marked privatizable in a phase are local there regardless of the plan
/// (each processor works on its own copy). Runs under a budget of its own
/// that carries only the caller's cancellation token: it charges the
/// caller's budget nothing and throws CancelledError when the caller is
/// cancelled. Each reference passes the "symval.region" fault point; a
/// firing replays that phase and records one symval.region degradation
/// (cause "fault"), the only way this degrades. Equal to replay() on every
/// input.
[[nodiscard]] SimulationResult simulate(const ir::Program& program, const ir::Bindings& params,
                                        const MachineParams& machine,
                                        const ExecutionPlan& plan);

/// The same result as simulate(), by enumerating every access (replayPhase
/// per phase) and every redistributed element.
[[nodiscard]] SimulationResult replay(const ir::Program& program, const ir::Bindings& params,
                                      const MachineParams& machine, const ExecutionPlan& plan);

}  // namespace ad::dsm
