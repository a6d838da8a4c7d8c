// Data-flow validation: the derived plans must be value-correct, not just
// local — every locally-served read observes the sequential value.
#include <gtest/gtest.h>

#include <algorithm>
#include <stdexcept>

#include "codes/suite.hpp"
#include "driver/pipeline.hpp"
#include "dsm/validate.hpp"

namespace ad::dsm {
namespace {

TEST(ValidateDataFlow, DerivedPlansAreValueCorrectAcrossTheSuite) {
  for (const auto& code : codes::benchmarkSuite()) {
    const ir::Program prog = code.build();
    driver::PipelineConfig config;
    config.params = codes::bindParams(prog, code.smallParams);
    config.processors = 4;
    config.simulateBaseline = false;
    const auto result = driver::analyzeAndSimulate(prog, config);
    const auto report = validateDataFlow(prog, config.params, result.plan, 4);
    EXPECT_GT(report.readsChecked, 0) << code.name;
    EXPECT_TRUE(report.ok()) << code.name << ": " << report.staleReads << " stale reads; "
                             << (report.diagnostics.empty() ? "" : report.diagnostics[0]);
  }
}

TEST(ValidateDataFlow, NaivePlansAreAlsoCorrectJustSlow) {
  // The BLOCK baseline serves stencil neighbours remotely — correct (gets
  // observe the owner) but expensive. The validator must not flag it.
  const ir::Program prog = codes::makeSwim();
  const auto params = codes::bindParams(prog, {{"N", 32}});
  const auto plan = ExecutionPlan::naiveBlock(prog, params, 4);
  const auto report = validateDataFlow(prog, params, plan, 4);
  EXPECT_TRUE(report.ok());
}

TEST(ValidateDataFlow, LoopCarriedFlowDependenceUnderHalosIsCaught) {
  // A Gauss-Seidel-style nest mislabeled DOALL: iteration i reads A(i-1),
  // which iteration i-1 *writes in the same phase*. Pre-phase halo refreshes
  // cannot keep the replicas coherent with in-phase writes, so the validator
  // flags stale reads at the chunk boundaries — this is exactly the bug it
  // caught in our first (in-place) mgrid smoother.
  ir::Program prog;
  const auto n = prog.symbols().parameter("N");
  const sym::Expr N = sym::Expr::symbol(n);
  const auto c = [](std::int64_t v) { return sym::Expr::constant(v); };
  prog.declareArray("A", N + c(1));
  {
    ir::PhaseBuilder b(prog, "init");
    b.doall("i", c(0), N);
    b.write("A", b.idx("i"));
    b.commit();
  }
  {
    ir::PhaseBuilder b(prog, "seidel");
    b.doall("i", c(1), N);
    b.read("A", b.idx("i") - c(1));
    b.write("A", b.idx("i"));
    b.commit();
  }
  prog.validate();
  const ir::Bindings params{{n, 32}};

  ExecutionPlan plan = ExecutionPlan::naiveBlock(prog, params, 4);
  // Align blocks with the iteration chunks so boundary reads are halo-served.
  plan.data["A"].assign(2, DataDistribution::blockCyclic(8));
  for (auto& it : plan.iteration) it.chunk = 8;
  plan.halo["A"] = {0, 1};  // one-element halo for the i-1 reads
  const auto report = validateDataFlow(prog, params, plan, 4);
  EXPECT_FALSE(report.ok());
  EXPECT_GT(report.staleReads, 0);
  ASSERT_FALSE(report.diagnostics.empty());
  EXPECT_NE(report.diagnostics[0].find("stale read"), std::string::npos);
}

TEST(ValidateDataFlow, FrontierRefreshKeepsStencilHalosFresh) {
  // The legal stencil form (read old array, write a different one): with the
  // halo granted and the frontier refresh rule, every read is fresh.
  ir::Program prog;
  const auto n = prog.symbols().parameter("N");
  const sym::Expr N = sym::Expr::symbol(n);
  const auto c = [](std::int64_t v) { return sym::Expr::constant(v); };
  prog.declareArray("A", N);
  prog.declareArray("B", N);
  {
    ir::PhaseBuilder b(prog, "write");
    b.doall("i", c(0), N - c(1));
    b.write("A", b.idx("i"));
    b.commit();
  }
  {
    ir::PhaseBuilder b(prog, "stencilread");
    b.doall("i", c(0), N - c(2));
    b.read("A", b.idx("i"));
    b.read("A", b.idx("i") + c(1));
    b.write("B", b.idx("i"));
    b.commit();
  }
  prog.validate();
  const ir::Bindings params{{n, 32}};

  ExecutionPlan plan = ExecutionPlan::naiveBlock(prog, params, 4);
  plan.halo["A"] = {0, 1};
  const auto report = validateDataFlow(prog, params, plan, 4);
  EXPECT_TRUE(report.ok()) << (report.diagnostics.empty() ? "" : report.diagnostics[0]);
  EXPECT_GT(report.readsChecked, 0);
}

// ---------------------------------------------------------------------------
// Theorem 1/2 validation: the wraparound of a cyclic program
// ---------------------------------------------------------------------------

/// Elements whose owner differs between `from` and `to`, one by one.
std::int64_t ownerChanges(const DataDistribution& from, const DataDistribution& to,
                          std::int64_t size, std::int64_t processors) {
  std::int64_t moved = 0;
  for (std::int64_t a = 0; a < size; ++a) {
    if (from.owner(a, processors) != to.owner(a, processors)) ++moved;
  }
  return moved;
}

/// The back edge of `array` in the validation report, which must be unique.
const EdgeObservation& backEdgeOf(const LocalityValidationReport& report,
                                  const std::string& array) {
  const EdgeObservation* found = nullptr;
  for (const auto& e : report.edges) {
    if (e.array != array || !e.backEdge) continue;
    EXPECT_EQ(found, nullptr) << "two back edges on " << array;
    found = &e;
  }
  if (found == nullptr) throw std::runtime_error("no back edge on " + array);
  return *found;
}

TEST(ValidateLocality, Hydro2dBackEdgeWordsMatchThePerElementOwnerCount) {
  // hydro2d's A is the suite's one cyclic back edge that reaches the
  // wraparound count (F2 -> F1 under two different distributions).
  const auto& suite = codes::benchmarkSuite();
  const auto code = std::find_if(suite.begin(), suite.end(),
                                 [](const codes::CodeInfo& c) { return c.name == "hydro2d"; });
  ASSERT_NE(code, suite.end());
  const ir::Program prog = code->build();
  struct Case {
    const char* size;
    std::map<std::string, std::int64_t> values;
    std::int64_t processors;
    std::int64_t words;
  };
  const std::vector<Case> cases = {{"small", code->smallParams, 4, 768},
                                   {"small", code->smallParams, 64, 1008},
                                   {"study", code->studyParams, 4, 196608},
                                   {"study", code->studyParams, 64, 258048}};
  for (const Case& c : cases) {
    const std::string label = std::string(c.size) + " H=" + std::to_string(c.processors);
    driver::PipelineConfig config;
    config.params = codes::bindParams(prog, c.values);
    config.processors = c.processors;
    config.simulateBaseline = false;
    config.validate = driver::ValidateMode::kSymbolic;
    const auto result = driver::analyzeAndSimulate(prog, config);
    ASSERT_TRUE(result.localityCheck.has_value()) << label;
    const EdgeObservation& e = backEdgeOf(*result.localityCheck, "A");
    EXPECT_EQ(e.fromPhase, 1u) << label;
    EXPECT_EQ(e.toPhase, 0u) << label;
    EXPECT_EQ(e.redistributedWords, c.words) << label;
    EXPECT_EQ(e.storageWords, 0) << label;
    const auto& dists = result.plan.data.at("A");
    const std::int64_t size = ir::evalInt(prog.array("A").size, config.params, "array size");
    EXPECT_EQ(e.redistributedWords,
              ownerChanges(dists[e.fromPhase], dists[e.toPhase], size, c.processors))
        << label;
  }
}

TEST(ValidateLocality, WraparoundIntoAFoldedPlacementCountsAsStorage) {
  // Two phases in a time loop: F1 reads A under a folded placement, F2
  // rewrites it BLOCK-CYCLIC. The wraparound F2 -> F1 re-enters reverse
  // storage, so its moved words are a storage event, not Theorem-2
  // communication.
  ir::Program prog;
  const auto n = prog.symbols().parameter("N");
  const sym::Expr N = sym::Expr::symbol(n);
  const auto c = [](std::int64_t v) { return sym::Expr::constant(v); };
  prog.declareArray("A", N);
  prog.declareArray("B", N);
  {
    ir::PhaseBuilder b(prog, "F1");
    b.doall("i", c(0), N - c(1));
    b.read("A", b.idx("i"));
    b.write("B", b.idx("i"));
    b.commit();
  }
  {
    ir::PhaseBuilder b(prog, "F2");
    b.doall("i", c(0), N - c(1));
    b.read("B", b.idx("i"));
    b.write("A", b.idx("i"));
    b.commit();
  }
  prog.setCyclic(true);
  prog.validate();
  const std::int64_t H = 4;
  const ir::Bindings params{{n, 96}};
  const auto lcgGraph = lcg::buildLCG(prog, params, H);

  ExecutionPlan plan = ExecutionPlan::naiveBlock(prog, params, H);
  const auto folded = DataDistribution::foldedBlockCyclic(4, 96);
  const auto block = DataDistribution::blockCyclic(4);
  plan.data["A"] = {folded, block};
  MachineParams machine;
  machine.processors = H;
  const SimulationResult run = simulate(prog, params, machine, plan);

  const auto report = validateLocality(lcgGraph, plan, run.observed, params, H);
  const EdgeObservation& e = backEdgeOf(report, "A");
  EXPECT_EQ(e.fromPhase, 1u);
  EXPECT_EQ(e.toPhase, 0u);
  EXPECT_EQ(e.redistributedWords, 0);
  const std::int64_t moved = ownerChanges(block, folded, 96, H);
  EXPECT_GT(moved, 0);
  EXPECT_EQ(e.storageWords, moved) << report.str();
}

}  // namespace
}  // namespace ad::dsm
