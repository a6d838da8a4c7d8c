#include "layers.hpp"

#include <iomanip>
#include <optional>
#include <sstream>
#include <stdexcept>

#include "comm/schedule.hpp"
#include "dsm/machine.hpp"
#include "dsm/validate.hpp"
#include "ilp/model.hpp"
#include "lcg/lcg.hpp"
#include "locality/symbolic_validate.hpp"
#include "sim/trace_sim.hpp"
#include "support/budget.hpp"

namespace e2e {

namespace {

std::int64_t nsSince(Clock::time_point epoch) {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() - epoch).count();
}

std::string jsonEscape(const std::string& s) {
  std::string out;
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out;
}

std::int64_t arraySize(const ad::ir::Program& program, const std::string& array,
                       const ad::ir::Bindings& params) {
  const ad::Rational r = program.array(array).size.evaluate(params);
  if (!r.isInteger()) throw std::runtime_error("array size of " + array + " is not integral");
  return r.asInteger();
}

}  // namespace

int SpanLog::open(std::string name, std::int64_t op) {
  SpanRecord rec;
  rec.name = std::move(name);
  rec.op = op;
  rec.parent = stack_.empty() ? -1 : stack_.back();
  rec.startNs = nsSince(epoch_);
  spans_.push_back(std::move(rec));
  const int id = static_cast<int>(spans_.size()) - 1;
  stack_.push_back(id);
  return id;
}

void SpanLog::close(int id) {
  spans_[static_cast<std::size_t>(id)].endNs = nsSince(epoch_);
  if (!stack_.empty() && stack_.back() == id) stack_.pop_back();
}

std::string SpanLog::chromeJson() const {
  std::ostringstream os;
  // Microseconds with all nanosecond digits: the default 6 significant digits
  // would round timestamps to 100 us after ten seconds of a run.
  os << std::fixed << std::setprecision(3) << "{\"traceEvents\":[";
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const SpanRecord& s = spans_[i];
    if (i > 0) os << ",";
    os << "\n{\"name\":\"" << jsonEscape(s.name) << "\",\"cat\":\"e2ebench\",\"ph\":\"X\""
       << ",\"ts\":" << s.startNs / 1000.0 << ",\"dur\":" << (s.endNs - s.startNs) / 1000.0
       << ",\"pid\":1,\"tid\":1,\"args\":{\"id\":" << i << ",\"parent\":" << s.parent
       << ",\"op\":" << s.op << "}}";
  }
  os << "\n],\"displayTimeUnit\":\"ms\"}\n";
  return os.str();
}

ad::driver::PipelineResult runLayered(const ad::ir::Program& program,
                                      const ad::driver::PipelineConfig& config, SpanLog& log,
                                      std::int64_t op) {
  using ad::driver::ValidateMode;
  // Same ledger the pipeline installs, so degradation lands in the result.
  ad::support::DegradationReport ledger;
  ad::support::DegradationScope degradationScope(&ledger);

  ad::lcg::LCG lcg = log.time("lcg.build", op, [&] {
    return ad::lcg::buildLCG(program, config.params, config.processors, nullptr);
  });
  ad::ilp::Model model = log.time("ilp.build", op, [&] {
    return ad::ilp::buildModel(lcg, config.params, config.processors, config.costs);
  });
  ad::ilp::Solution solution = log.time("ilp.solve", op, [&] { return model.solve(); });

  ad::dsm::MachineParams machine = config.machine;
  machine.processors = config.processors;
  ad::dsm::ExecutionPlan plan = log.time("driver.plan", op, [&] {
    return ad::driver::derivePlan(program, lcg, model, solution, config.params,
                                  config.processors, machine);
  });

  std::vector<ad::comm::CommSchedule> schedules = log.time("comm.generate", op, [&] {
    std::vector<ad::comm::CommSchedule> out;
    for (const auto& [array, dists] : plan.data) {
      const std::int64_t size = arraySize(program, array, config.params);
      for (std::size_t k = 1; k < dists.size(); ++k) {
        if (dists[k - 1] == dists[k]) continue;
        if (!dists[k - 1].hasOwner() || !dists[k].hasOwner()) continue;
        if (!ad::dsm::redistributionMovesData(program, array, k)) continue;
        auto sched = ad::comm::generateGlobal(array, size, dists[k - 1], dists[k],
                                              config.processors);
        if (!ad::comm::verifiesRedistribution(sched, size, dists[k - 1], dists[k],
                                              config.processors)) {
          throw std::runtime_error("redistribution schedule of " + array + " does not verify");
        }
        out.push_back(std::move(sched));
      }
    }
    return out;
  });

  ad::dsm::SimulationResult planned;
  if (config.simulatePlan) {
    planned = log.time("dsm.model", op, [&] {
      return ad::dsm::simulate(program, config.params, machine, plan);
    });
  }
  ad::driver::PipelineResult result{std::move(lcg),       std::move(model),
                                    std::move(solution),  std::move(plan),
                                    std::move(schedules), std::move(planned),
                                    {},                   config.processors,
                                    {},                   {},
                                    {},                   {},
                                    {}};
  if (config.simulateBaseline) {
    result.naive = log.time("dsm.baseline", op, [&] {
      return ad::dsm::simulate(
          program, config.params, machine,
          ad::dsm::ExecutionPlan::naiveBlock(program, config.params, config.processors));
    });
  }
  // The benchmark never sets the legacy traceSimulate alias of kTrace.
  const ValidateMode mode = config.validate;
  if (mode == ValidateMode::kTrace || mode == ValidateMode::kBoth) {
    ad::sim::SimOptions so;
    so.processors = config.processors;
    result.trace = log.time("sim.trace", op, [&] {
      return ad::sim::simulateTrace(program, config.params, result.plan, so);
    });
  }
  if (mode == ValidateMode::kSymbolic || mode == ValidateMode::kBoth) {
    ad::loc::SymvalOptions so;
    so.processors = config.processors;
    result.symbolic = log.time("locality.symval", op, [&] {
      return ad::loc::symbolicTrace(program, config.params, result.plan, so);
    });
  }
  if (mode == ValidateMode::kBoth) {
    if (auto diff = ad::loc::describeTraceDifference(result.symbolic->observed,
                                                     result.trace->observed)) {
      result.symbolicDifference = std::move(*diff);
    }
  }
  if (mode != ValidateMode::kNone) {
    const ad::dsm::ObservedTrace& observed =
        result.trace ? result.trace->observed : result.symbolic->observed;
    result.localityCheck = log.time("dsm.validate", op, [&] {
      return ad::dsm::validateLocality(result.lcg, result.plan, observed, config.params,
                                       config.processors);
    });
  }
  result.degradation = ledger.snapshot();
  return result;
}

}  // namespace e2e
