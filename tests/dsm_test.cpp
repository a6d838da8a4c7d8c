#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "codes/suite.hpp"
#include "codes/tfft2.hpp"
#include "comm/schedule.hpp"
#include "driver/pipeline.hpp"
#include "dsm/closed_form.hpp"
#include "dsm/machine.hpp"
#include "locality/symbolic_validate.hpp"
#include "obs/obs.hpp"

namespace ad::dsm {
namespace {

TEST(DataDistribution, BlockCyclicOwnership) {
  const auto d = DataDistribution::blockCyclic(4);
  // addresses 0..3 -> PE0, 4..7 -> PE1, ..., wrap at H.
  EXPECT_EQ(d.owner(0, 2), 0);
  EXPECT_EQ(d.owner(3, 2), 0);
  EXPECT_EQ(d.owner(4, 2), 1);
  EXPECT_EQ(d.owner(8, 2), 0);
  EXPECT_TRUE(d.isLocal(9, 0, 2));
  EXPECT_FALSE(d.isLocal(9, 1, 2));
}

TEST(DataDistribution, BlockIsOneBlockPerProcessor) {
  const auto d = DataDistribution::blocked(100, 4);
  EXPECT_EQ(d.block, 25);
  EXPECT_EQ(d.owner(0, 4), 0);
  EXPECT_EQ(d.owner(99, 4), 3);
}

TEST(DataDistribution, FoldedCoLocatesMirrorPairs) {
  // fold = 16: a and 16-a and a+16 and 32-a all share an owner.
  const auto d = DataDistribution::foldedBlockCyclic(2, 16);
  for (std::int64_t a = 0; a <= 8; ++a) {
    const auto o = d.owner(a, 4);
    EXPECT_EQ(d.owner(16 - a, 4), o) << a;
    EXPECT_EQ(d.owner(16 + a, 4), o) << a;
    EXPECT_EQ(d.owner(32 - a, 4), o) << a;
  }
  // Distinct fold classes can land on different PEs.
  EXPECT_NE(d.owner(0, 4), d.owner(2, 4));
}

TEST(DataDistribution, ReplicatedAndPrivateAlwaysLocal) {
  EXPECT_TRUE(DataDistribution::replicated().isLocal(123, 7, 8));
  EXPECT_TRUE(DataDistribution::privatePerPE().isLocal(123, 7, 8));
  EXPECT_FALSE(DataDistribution::replicated().hasOwner());
}

TEST(IterationDistribution, CyclicChunks) {
  const IterationDistribution s{3};
  EXPECT_EQ(s.executor(0, 4), 0);
  EXPECT_EQ(s.executor(2, 4), 0);
  EXPECT_EQ(s.executor(3, 4), 1);
  EXPECT_EQ(s.executor(12, 4), 0);  // wraps after 4 chunks
}

class SimulateTfft2 : public ::testing::Test {
 protected:
  SimulateTfft2() : prog(codes::makeTFFT2()) {
    const auto p = *prog.symbols().lookup("p");
    const auto q = *prog.symbols().lookup("q");
    params = {{p, 4}, {q, 4}};  // P = Q = 16, PQ = 256
  }
  ir::Program prog;
  ir::Bindings params;
};

TEST_F(SimulateTfft2, NaiveBlockPlanRunsAndCountsAccesses) {
  MachineParams machine;
  machine.processors = 4;
  const auto plan = ExecutionPlan::naiveBlock(prog, params, machine.processors);
  const auto result = simulate(prog, params, machine, plan);
  ASSERT_EQ(result.phases.size(), 8u);
  for (const auto& ph : result.phases) {
    EXPECT_GT(ph.localAccesses + ph.remoteAccesses, 0) << ph.phase;
    EXPECT_GT(ph.time, 0.0);
    EXPECT_GT(ph.seqTime, 0.0);
  }
  // The naive plan leaves remote traffic in the transpose-like phases.
  EXPECT_GT(result.totalRemoteAccesses(), 0);
  EXPECT_GT(result.sequentialTime(), 0.0);
  EXPECT_GT(result.speedup(), 0.0);
}

TEST_F(SimulateTfft2, PrivatizedArraysAreAlwaysLocal) {
  MachineParams machine;
  machine.processors = 4;
  const auto plan = ExecutionPlan::naiveBlock(prog, params, machine.processors);
  const auto result = simulate(prog, params, machine, plan);
  // F3 privatizes Y: its Y accesses must all be local. X in F3 under BLOCK
  // may or may not be local, so compare against a Y-only count.
  std::int64_t yAccesses = 0;
  ir::forEachAccess(prog, prog.phase(2), params,
                    [&](const ir::ConcreteAccess& a, const ir::Bindings&) {
                      if (a.ref->array == "Y") ++yAccesses;
                    });
  EXPECT_GT(yAccesses, 0);
  // Build a plan where X accesses in F3 are certainly remote-free too:
  // CYCLIC(1) iterations, X distributed BLOCK-CYCLIC(2P).
  ExecutionPlan aligned = plan;
  for (auto& it : aligned.iteration) it.chunk = 1;
  aligned.data["X"].assign(8, DataDistribution::blockCyclic(2 * 16));
  aligned.data["Y"].assign(8, DataDistribution::blockCyclic(2 * 16));
  const auto r2 = simulate(prog, params, machine, aligned);
  EXPECT_EQ(r2.phases[2].remoteAccesses, 0) << "F3 should be fully local";
}

TEST_F(SimulateTfft2, RedistributionAccounting) {
  MachineParams machine;
  machine.processors = 4;
  auto plan = ExecutionPlan::naiveBlock(prog, params, machine.processors);
  // Change X's distribution entering phase 3: a redistribution is charged.
  for (std::size_t k = 3; k < 8; ++k) {
    plan.data["X"][k] = DataDistribution::blockCyclic(8);
  }
  const auto result = simulate(prog, params, machine, plan);
  ASSERT_EQ(result.redistributions.size(), 1u);
  EXPECT_EQ(result.redistributions[0].array, "X");
  EXPECT_EQ(result.redistributions[0].beforePhase, 3u);
  EXPECT_GT(result.redistributions[0].wordsMoved, 0);
  EXPECT_GT(result.redistributions[0].messages, 0);
  EXPECT_GT(result.redistributions[0].time, 0.0);
  EXPECT_GT(result.parallelTime(), 0.0);
}

TEST_F(SimulateTfft2, OneProcessorIsPureSequential) {
  MachineParams machine;
  machine.processors = 1;
  const auto plan = ExecutionPlan::naiveBlock(prog, params, machine.processors);
  const auto result = simulate(prog, params, machine, plan);
  EXPECT_EQ(result.totalRemoteAccesses(), 0);
  EXPECT_DOUBLE_EQ(result.parallelTime(), result.sequentialTime());
  EXPECT_DOUBLE_EQ(result.efficiency(1), 1.0);
}

// ---------------------------------------------------------------------------
// Closed-form cost model vs. its enumerating twin
// ---------------------------------------------------------------------------

/// simulate() (closed form) and replay() (enumeration) must agree byte for
/// byte: the report, every processor's busy time, and the observed trace.
void expectTwinsAgree(const ir::Program& prog, const ir::Bindings& params,
                      const MachineParams& machine, const ExecutionPlan& plan,
                      const std::string& label) {
  const SimulationResult closed = simulate(prog, params, machine, plan);
  const SimulationResult replayed = replay(prog, params, machine, plan);
  EXPECT_EQ(closed.str(), replayed.str()) << label;
  ASSERT_EQ(closed.phases.size(), replayed.phases.size()) << label;
  for (std::size_t k = 0; k < closed.phases.size(); ++k) {
    EXPECT_EQ(closed.phases[k].peTime, replayed.phases[k].peTime)
        << label << " phase " << closed.phases[k].phase;
    EXPECT_EQ(closed.phases[k].seqTime, replayed.phases[k].seqTime) << label;
  }
  const auto diff = loc::describeTraceDifference(closed.observed, replayed.observed);
  EXPECT_FALSE(diff.has_value()) << label << ": " << *diff;
}

TEST(CostModelTwin, SuiteDerivedAndBaselinePlansMatchTheReplay) {
  for (const auto& code : codes::benchmarkSuite()) {
    const ir::Program prog = code.build();
    const ir::Bindings params = codes::bindParams(prog, code.smallParams);
    for (const std::int64_t H : {1, 4, 8, 64}) {
      driver::PipelineConfig config;
      config.params = params;
      config.processors = H;
      config.simulatePlan = false;
      config.simulateBaseline = false;
      const auto derived = driver::analyzeAndSimulate(prog, config).plan;
      MachineParams machine;
      machine.processors = H;
      const std::string label = code.name + " H=" + std::to_string(H);
      expectTwinsAgree(prog, params, machine, derived, label + " derived");
      expectTwinsAgree(prog, params, machine, ExecutionPlan::naiveBlock(prog, params, H),
                       label + " naive");
    }
  }
}

std::uint64_t nextRand(std::uint64_t& state) {
  state ^= state >> 12;
  state ^= state << 25;
  state ^= state >> 27;
  return state * 0x2545F4914F6CDD1DULL;
}

std::int64_t pick(std::uint64_t& rng, std::int64_t lo, std::int64_t hi) {
  return lo + static_cast<std::int64_t>(nextRand(rng) % static_cast<std::uint64_t>(hi - lo + 1));
}

TEST(CostModelTwin, PropertyRandomAffinePhasesMatchTheReplay) {
  std::uint64_t rng = 0xC0575EED;  // fixed seed: failures must reproduce
  const auto c = [](std::int64_t v) { return sym::Expr::constant(v); };
  for (int iter = 0; iter < 300; ++iter) {
    // One phase over A (and a scratch B): an optional sequential outer loop,
    // an optional DOALL, an inner loop that is sometimes triangular, and
    // affine subscripts with random coefficients. The base offset keeps
    // every address non-negative.
    ir::Program prog;
    prog.declareArray("A", c(4096));
    prog.declareArray("B", c(4096));
    const bool outer = pick(rng, 0, 3) == 0;
    const bool parallel = pick(rng, 0, 4) != 0;
    const bool triangular = pick(rng, 0, 3) == 0;
    const std::int64_t trip = pick(rng, 1, 60);
    const std::int64_t inner = pick(rng, 1, 9);
    ir::PhaseBuilder b(prog, "F");
    if (outer) b.loop("k", c(0), c(pick(rng, 0, 2)));
    const std::int64_t lo = pick(rng, 0, 5);
    if (parallel) {
      b.doall("i", c(lo), c(lo + trip - 1));
    } else {
      b.loop("i", c(lo), c(lo + trip - 1));
    }
    b.loop("j", c(0), triangular ? b.idx("i") : c(inner - 1));
    const std::int64_t refs = pick(rng, 1, 3);
    for (std::int64_t r = 0; r < refs; ++r) {
      sym::Expr sub = c(600 + pick(rng, 0, 40)) + c(pick(rng, -3, 5)) * b.idx("i") +
                      c(pick(rng, -2, 4)) * b.idx("j");
      if (outer) sub = sub + c(pick(rng, 0, 7)) * b.idx("k");
      if (pick(rng, 0, 1) == 0) {
        b.read("A", sub);
      } else {
        b.write("A", sub);
      }
    }
    b.update("B", c(pick(rng, 0, 9)) + b.idx("j"));
    const bool privatizeB = pick(rng, 0, 1) == 0;
    if (privatizeB) b.privatize("B");
    b.workPerAccess(iter % 4 == 0 ? 0.1 : static_cast<double>(pick(rng, 1, 3)));
    b.commit();
    prog.validate();

    MachineParams machine;
    machine.processors = pick(rng, 1, 9);
    const std::int64_t H = machine.processors;
    const std::int64_t block = pick(rng, 1, 12);
    ExecutionPlan plan;
    plan.iteration = {IterationDistribution{pick(rng, 1, 8)}};
    switch (pick(rng, 0, 2)) {
      case 0: plan.data["A"] = {DataDistribution::blockCyclic(block)}; break;
      case 1:
        plan.data["A"] = {DataDistribution::foldedBlockCyclic(block, 2 * block * H * pick(rng, 1, 3))};
        break;
      default:
        plan.data["A"] = {DataDistribution::foldedBlockCyclic(block, pick(rng, 1, 200))};
        break;
    }
    plan.data["B"] = {DataDistribution::blockCyclic(pick(rng, 1, 6))};
    plan.halo["A"] = {pick(rng, 0, 3) == 0 ? 0 : pick(rng, 1, 2 * block + 1)};
    plan.halo["B"] = {0};
    expectTwinsAgree(prog, {}, machine, plan, "iter " + std::to_string(iter));
  }
}

TEST(CostModelTwin, StudySizeCostModelNeverFallsBackToTheReplay) {
  // The fast-path pin: at the paper's study sizes on 64 PEs every phase of
  // every suite code, plan and baseline alike, is counted in closed form.
  obs::Counter& closedForm = obs::metrics().counter("ad.dsm.phases_closed_form");
  obs::Counter& replayed = obs::metrics().counter("ad.dsm.phases_replayed");
  for (const auto& code : codes::benchmarkSuite()) {
    const ir::Program prog = code.build();
    driver::PipelineConfig config;
    config.params = codes::bindParams(prog, code.studyParams);
    config.processors = 64;
    const std::int64_t closedBefore = closedForm.value();
    const std::int64_t replayedBefore = replayed.value();
    const auto result = driver::analyzeAndSimulate(prog, config);
    EXPECT_EQ(replayed.value() - replayedBefore, 0) << code.name;
    EXPECT_EQ(closedForm.value() - closedBefore,
              static_cast<std::int64_t>(2 * prog.phases().size()))
        << code.name;
    EXPECT_EQ(result.planned.phases.size(), prog.phases().size()) << code.name;
  }
}

// ---------------------------------------------------------------------------
// Communication schedules
// ---------------------------------------------------------------------------

TEST(CommSchedule, GlobalRedistributionIsExact) {
  const auto from = DataDistribution::blockCyclic(8);
  const auto to = DataDistribution::blockCyclic(2);
  for (const std::int64_t size : {64, 100, 127}) {
    for (const std::int64_t H : {2, 4, 8}) {
      const auto sched = comm::generateGlobal("X", size, from, to, H);
      EXPECT_TRUE(comm::verifiesRedistribution(sched, size, from, to, H))
          << "size=" << size << " H=" << H;
    }
  }
}

TEST(CommSchedule, GlobalToFoldedIsExact) {
  const auto from = DataDistribution::blockCyclic(16);
  const auto to = DataDistribution::foldedBlockCyclic(4, 128);
  const auto sched = comm::generateGlobal("X", 257, from, to, 8);
  EXPECT_TRUE(comm::verifiesRedistribution(sched, 257, from, to, 8));
  EXPECT_GT(sched.totalWords(), 0);
}

TEST(CommSchedule, IdenticalDistributionsMoveNothing) {
  const auto d = DataDistribution::blockCyclic(4);
  const auto sched = comm::generateGlobal("X", 64, d, d, 4);
  EXPECT_EQ(sched.totalWords(), 0);
  EXPECT_EQ(sched.messageCount(), 0u);
}

TEST(CommSchedule, MessagesAreAggregatedPerPair) {
  const auto from = DataDistribution::blockCyclic(1);
  const auto to = DataDistribution::blockCyclic(4);
  const std::int64_t H = 4;
  const auto sched = comm::generateGlobal("X", 64, from, to, H);
  EXPECT_TRUE(comm::verifiesRedistribution(sched, 64, from, to, H));
  // At most H*(H-1) messages regardless of volume.
  EXPECT_LE(sched.messageCount(), static_cast<std::size_t>(H * (H - 1)));
  // Aggregation coalesces contiguous runs.
  for (const auto& m : sched.messages()) {
    std::int64_t lastEnd = -1;
    sched.forEachRange(m, [&](const comm::Range& r) {
      EXPECT_GT(r.begin, lastEnd);  // strictly separated
      lastEnd = r.end;
    });
  }
  EXPECT_GT(sched.time(MachineParams{}), 0.0);
  EXPECT_NE(sched.str().find("put"), std::string::npos);
}

/// One message of the per-element reference: its maximal ranges, listed.
struct ExpectedMessage {
  std::int64_t src = 0;
  std::int64_t dst = 0;
  std::vector<comm::Range> ranges;
};

/// The per-element reference the schedules are checked against: every moved
/// element as its own (src, dst, addr) tuple, aggregated into maximal ranges
/// per pair.
std::vector<ExpectedMessage> bruteForceMessages(
    const std::vector<std::tuple<std::int64_t, std::int64_t, std::int64_t>>& moves) {
  std::map<std::pair<std::int64_t, std::int64_t>, std::set<std::int64_t>> byPair;
  for (const auto& [src, dst, addr] : moves) byPair[{src, dst}].insert(addr);
  std::vector<ExpectedMessage> out;
  for (const auto& [pair, addrs] : byPair) {
    ExpectedMessage m{pair.first, pair.second, {}};
    for (const std::int64_t a : addrs) {
      if (!m.ranges.empty() && m.ranges.back().end == a) {
        ++m.ranges.back().end;
      } else {
        m.ranges.push_back(comm::Range{a, a + 1});
      }
    }
    out.push_back(std::move(m));
  }
  return out;
}

/// Compares the schedule's expansion (forEachRange) with the reference, and
/// its closed-form words and range counts with the expansion's.
void expectSameMessages(const comm::CommSchedule& sched, const std::vector<ExpectedMessage>& want,
                        const std::string& label) {
  ASSERT_EQ(sched.messages().size(), want.size()) << label;
  for (std::size_t i = 0; i < want.size(); ++i) {
    const comm::Message& got = sched.messages()[i];
    EXPECT_EQ(got.src, want[i].src) << label;
    EXPECT_EQ(got.dst, want[i].dst) << label;
    std::vector<comm::Range> ranges;
    sched.forEachRange(got, [&](const comm::Range& r) { ranges.push_back(r); });
    ASSERT_EQ(ranges.size(), want[i].ranges.size()) << label << " message " << i;
    std::int64_t words = 0;
    for (std::size_t r = 0; r < want[i].ranges.size(); ++r) {
      EXPECT_EQ(ranges[r].begin, want[i].ranges[r].begin) << label;
      EXPECT_EQ(ranges[r].end, want[i].ranges[r].end) << label;
      words += want[i].ranges[r].words();
    }
    EXPECT_EQ(sched.rangeCount(got), static_cast<std::int64_t>(ranges.size())) << label;
    EXPECT_EQ(sched.words(got), words) << label;
  }
}

TEST(CommSchedule, OwnerRunSchedulesMatchPerElementAggregation) {
  const std::int64_t size = 1000;
  for (const std::int64_t H : {1, 3, 8, 64}) {
    const std::vector<std::pair<std::string, DataDistribution>> dists = {
        {"BLOCK", DataDistribution::blocked(size, H)},
        {"CYCLIC", DataDistribution::blockCyclic(1)},
        {"BLOCK-CYCLIC(3)", DataDistribution::blockCyclic(3)},
        {"BLOCK-CYCLIC(16)", DataDistribution::blockCyclic(16)},
        {"FOLDED(2,64)", DataDistribution::foldedBlockCyclic(2, 64)},
        {"FOLDED(5,333)", DataDistribution::foldedBlockCyclic(5, 333)},
    };
    for (const auto& [fromName, from] : dists) {
      for (const auto& [toName, to] : dists) {
        std::vector<std::tuple<std::int64_t, std::int64_t, std::int64_t>> moves;
        for (std::int64_t a = 0; a < size; ++a) {
          const std::int64_t src = from.owner(a, H);
          const std::int64_t dst = to.owner(a, H);
          if (src != dst) moves.emplace_back(src, dst, a);
        }
        const auto sched = comm::generateGlobal("X", size, from, to, H);
        expectSameMessages(sched, bruteForceMessages(moves),
                           fromName + " -> " + toName + " H=" + std::to_string(H));
        EXPECT_TRUE(comm::verifiesRedistribution(sched, size, from, to, H));
      }
    }
  }
}

/// CommSchedule::str() of the per-element reference: first four ranges of
/// each message, then how many more there are.
std::string referenceStr(const std::vector<ExpectedMessage>& msgs) {
  std::int64_t words = 0;
  for (const auto& m : msgs) {
    for (const auto& r : m.ranges) words += r.words();
  }
  std::ostringstream os;
  os << "global communication for X (" << msgs.size() << " messages, " << words << " words)\n";
  for (const auto& m : msgs) {
    std::int64_t w = 0;
    for (const auto& r : m.ranges) w += r.words();
    os << "  PE " << m.src << " -> PE " << m.dst << " (" << w << " words):";
    const std::size_t shown = std::min<std::size_t>(4, m.ranges.size());
    for (std::size_t i = 0; i < shown; ++i) {
      os << " put X[" << m.ranges[i].begin << ".." << m.ranges[i].end << ")";
    }
    if (m.ranges.size() > shown) os << " ... (" << m.ranges.size() - shown << " more ranges)";
    os << "\n";
  }
  return os.str();
}

/// Checks one global schedule against the per-element reference: ranges,
/// closed-form counts, str(), the cost model's count and the verifier.
void expectGlobalMatchesReference(const DataDistribution& from, const DataDistribution& to,
                                  std::int64_t size, std::int64_t H, const std::string& label) {
  std::vector<std::tuple<std::int64_t, std::int64_t, std::int64_t>> moves;
  for (std::int64_t a = 0; a < size; ++a) {
    const std::int64_t src = from.owner(a, H);
    const std::int64_t dst = to.owner(a, H);
    if (src != dst) moves.emplace_back(src, dst, a);
  }
  const auto want = bruteForceMessages(moves);
  std::int64_t ranges = 0;
  for (const auto& m : want) ranges += static_cast<std::int64_t>(m.ranges.size());
  const auto sched = comm::generateGlobal("X", size, from, to, H);
  expectSameMessages(sched, want, label);
  EXPECT_EQ(sched.totalWords(), static_cast<std::int64_t>(moves.size())) << label;
  EXPECT_EQ(sched.messageCount(), want.size()) << label;
  EXPECT_EQ(sched.rangeCount(), ranges) << label;
  EXPECT_EQ(sched.str(), referenceStr(want)) << label;
  std::int64_t words = -1;
  std::int64_t messages = -1;
  countRedistribution(from, to, size, H, words, messages);
  EXPECT_EQ(words, static_cast<std::int64_t>(moves.size())) << label;
  EXPECT_EQ(messages, static_cast<std::int64_t>(want.size())) << label;
  EXPECT_TRUE(comm::verifiesRedistribution(sched, size, from, to, H)) << label;
}

std::string describe(const DataDistribution& d) {
  if (d.kind == DataDistribution::Kind::kFoldedBlockCyclic) {
    return "FOLDED(" + std::to_string(d.block) + "," + std::to_string(d.fold) + ")";
  }
  return "BLOCK-CYCLIC(" + std::to_string(d.block) + ")";
}

TEST(CommSchedule, PeriodicScheduleFuzzMatchesPerElementReference) {
  std::uint64_t rng = 0x5EC7104Eull;  // fixed seed: failures must reproduce
  // 0 BLOCK, 1 CYCLIC, 2 BLOCK-CYCLIC(b), 3 FOLDED(b, fold).
  const auto make = [&](int kind, std::int64_t H) {
    switch (kind) {
      case 0: return DataDistribution::blocked(pick(rng, 1, 160), H);
      case 1: return DataDistribution::blockCyclic(1);
      case 2: return DataDistribution::blockCyclic(pick(rng, 2, H >= 64 ? 4 : 12));
      default: return DataDistribution::foldedBlockCyclic(pick(rng, 1, 6), pick(rng, 2, 90));
    }
  };
  const std::int64_t processorCounts[] = {1, 2, 3, 8, 64};
  int cases = 0;
  int crossingCases = 0;
  for (int round = 0; round < 4; ++round) {
    for (const std::int64_t H : processorCounts) {
      for (int fromKind = 0; fromKind < 4; ++fromKind) {
        for (int toKind = 0; toKind < 4; ++toKind) {
          const DataDistribution from = make(fromKind, H);
          const DataDistribution to = make(toKind, H);
          const std::int64_t lambda =
              jointOwnerPeriod(from, to, std::int64_t{1} << 40, H).lambda;
          // Below one period, one period +- 1, and a non-multiple of it.
          const std::int64_t sizes[] = {pick(rng, 1, lambda), lambda - 1, lambda, lambda + 1,
                                        pick(rng, 2, 3) * lambda + pick(rng, 1, lambda)};
          for (const std::int64_t size : sizes) {
            if (size < 1 || size > 20000) continue;
            const std::string label = describe(from) + " -> " + describe(to) +
                                      " H=" + std::to_string(H) +
                                      " size=" + std::to_string(size);
            expectGlobalMatchesReference(from, to, size, H, label);
            ++cases;
            // An owner run crossing a period boundary: both owners agree on
            // both sides of it.
            if (size > lambda && from.owner(lambda - 1, H) == from.owner(0, H) &&
                to.owner(lambda - 1, H) == to.owner(0, H)) {
              ++crossingCases;
            }
          }
        }
      }
    }
  }
  // A folded pair whose runs always cross the boundary: owner(fold - 1) is
  // owner(1), which shares PE 0 with address 0 for blocks of 2 or more.
  for (const std::int64_t H : {2, 8}) {
    const auto from = DataDistribution::foldedBlockCyclic(2, 24);
    const auto to = DataDistribution::foldedBlockCyclic(3, 40);
    expectGlobalMatchesReference(from, to, 3 * 120 + 7, H,
                                 "folded crossing H=" + std::to_string(H));
    ++cases;
    ++crossingCases;
  }
  EXPECT_GE(cases, 300);
  EXPECT_GT(crossingCases, 2);
}

TEST(CommSchedule, RangeCountMergesRunsAcrossPeriodBoundaries) {
  // Runs ending at lambda and restarting at 0 join across copies, and the
  // last copy's run joins a tail run starting at repeats * lambda.
  const comm::CommSchedule sched(
      "X", 8, 3,
      {comm::Message{0, 1, {comm::Section{0, 2, 6, 2}}, {comm::Section{24, 1, 0, 1}}},
       comm::Message{1, 0, {comm::Section{3, 1, 0, 1}}, {}}});
  std::vector<std::pair<std::int64_t, std::int64_t>> ranges;
  sched.forEachRange(sched.messages()[0],
                     [&](const comm::Range& r) { ranges.emplace_back(r.begin, r.end); });
  const std::vector<std::pair<std::int64_t, std::int64_t>> want = {
      {0, 2}, {6, 10}, {14, 18}, {22, 25}};
  EXPECT_EQ(ranges, want);
  EXPECT_EQ(sched.rangeCount(sched.messages()[0]), 4);
  EXPECT_EQ(sched.rangeCount(sched.messages()[1]), 3);
  EXPECT_EQ(sched.rangeCount(), 7);
  EXPECT_EQ(sched.words(sched.messages()[0]), 13);
  EXPECT_EQ(sched.totalWords(), 16);
  EXPECT_NE(sched.str().find("put X[0..2) put X[6..10) put X[14..18) put X[22..25)\n"),
            std::string::npos)
      << sched.str();
}

TEST(CommSchedule, VerifierRejectsDoctoredPeriodicSchedules) {
  const auto from = DataDistribution::blockCyclic(3);
  const auto to = DataDistribution::blockCyclic(4);
  const std::int64_t H = 4;
  const std::int64_t size = 48 * 3 + 29;  // lambda = lcm(12, 16) = 48, three copies and a tail
  const auto good = comm::generateGlobal("X", size, from, to, H);
  ASSERT_EQ(good.period(), 48);
  ASSERT_EQ(good.repeats(), 3);
  ASSERT_TRUE(comm::verifiesRedistribution(good, size, from, to, H));
  const auto rebuilt = [&](std::vector<comm::Message> msgs, std::int64_t period,
                           std::int64_t repeats) {
    return comm::CommSchedule("X", period, repeats, std::move(msgs));
  };
  const auto verifies = [&](const comm::CommSchedule& s) {
    return comm::verifiesRedistribution(s, size, from, to, H);
  };
  // The index of a message with both period and tail sections.
  std::size_t k = 0;
  while (k < good.messages().size() &&
         (good.messages()[k].period.empty() || good.messages()[k].tail.empty())) {
    ++k;
  }
  ASSERT_LT(k, good.messages().size());
  const comm::Message& m = good.messages()[k];
  const std::int64_t wrongDst = (m.dst + 1) % H == m.src ? (m.dst + 2) % H : (m.dst + 1) % H;

  // An element on the wrong pair in the period: the period sections travel
  // to a pair whose destination does not own them.
  {
    auto msgs = good.messages();
    msgs[k].period.clear();
    msgs.push_back(comm::Message{m.src, wrongDst, m.period, {}});
    EXPECT_FALSE(verifies(rebuilt(msgs, 48, 3)));
  }
  // ... and in the tail.
  {
    auto msgs = good.messages();
    msgs[k].tail.clear();
    msgs.push_back(comm::Message{m.src, wrongDst, {}, m.tail});
    EXPECT_FALSE(verifies(rebuilt(msgs, 48, 3)));
  }
  // A period section outside [0, lambda): shifted by one period, its owners
  // still match, but the copies it stands for would cover [lambda, 2 lambda).
  {
    auto msgs = good.messages();
    msgs[k].period.back().begin += 48;
    EXPECT_FALSE(verifies(rebuilt(msgs, 48, 3)));
  }
  // A missing element, a duplicated one, a self-put and a wrong period.
  {
    auto msgs = good.messages();
    msgs[k].tail.pop_back();
    EXPECT_FALSE(verifies(rebuilt(msgs, 48, 3)));
  }
  {
    auto msgs = good.messages();
    msgs.push_back(comm::Message{m.src, m.dst, {m.period.front()}, {}});
    EXPECT_FALSE(verifies(rebuilt(msgs, 48, 3)));
  }
  {
    auto msgs = good.messages();
    msgs.push_back(comm::Message{m.src, m.src, {}, {}});
    EXPECT_FALSE(verifies(rebuilt(msgs, 48, 3)));
  }
  EXPECT_FALSE(verifies(rebuilt(good.messages(), 24, 7)));   // not a period of `to`
  EXPECT_FALSE(verifies(rebuilt(good.messages(), 48, 2)));   // tail longer than a period
  EXPECT_FALSE(verifies(rebuilt(good.messages(), 48, 4)));   // copies past the array end
  EXPECT_TRUE(verifies(rebuilt(good.messages(), 48, 3)));
}

TEST(CommSchedule, StudySizeWalksOneOwnerPeriodPerRedistribution) {
  // The regression pin of the one owner-run pass: at the paper's study sizes
  // on 64 PEs each global schedule walks the owner runs of one joint period
  // plus the tail, not of the whole array (trfd's XIJ: 49152 runs, not
  // 580608).
  const std::map<std::string, std::int64_t> expected = {
      {"tfft2", 32962}, {"swim", 0},     {"tomcatv", 0},    {"hydro2d", 32768},
      {"mgrid", 0},     {"trfd", 49152}, {"matmul", 16640}, {"conv2d", 0},
      {"attention", 8192}, {"stencil_tt", 0}};
  obs::Counter& walked = obs::metrics().counter("ad.comm.runs_walked");
  for (const auto& code : codes::benchmarkSuite()) {
    const ir::Program prog = code.build();
    driver::PipelineConfig config;
    config.params = codes::bindParams(prog, code.studyParams);
    config.processors = 64;
    config.simulatePlan = false;
    config.simulateBaseline = false;
    const std::int64_t before = walked.value();
    const auto result = driver::analyzeAndSimulate(prog, config);
    const std::int64_t runs = walked.value() - before;
    ASSERT_TRUE(expected.count(code.name)) << code.name;
    EXPECT_EQ(runs, expected.at(code.name)) << code.name;
    // Never more runs than the periods and tails hold elements.
    std::int64_t elements = 0;
    for (const auto& s : result.schedules) {
      const std::int64_t size =
          ir::evalInt(prog.array(s.array()).size, config.params, "array size");
      elements += s.period() + size - s.period() * s.repeats();
    }
    EXPECT_LE(runs, elements) << code.name;
  }
}

}  // namespace
}  // namespace ad::dsm
