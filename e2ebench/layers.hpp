// Layer-by-layer replay of driver::analyzeAndSimulate, timed from outside.
//
// The traced run of the benchmark does not use the program's own spans: it
// calls each layer's public function itself, in the order analyzeAndSimulate
// calls them, and records one span around each call. Spans are kept in
// memory (name, start, end, parent, operation id) and written out as Chrome
// trace JSON when the run ends. Every replay is checked against the
// program's own analyzeAndSimulate by the caller (byte-identical golden).
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "driver/pipeline.hpp"

namespace e2e {

using Clock = std::chrono::steady_clock;

struct SpanRecord {
  std::string name;
  std::int64_t startNs = 0;  ///< since the log's epoch
  std::int64_t endNs = 0;
  int parent = -1;           ///< index of the enclosing span, -1 for a root
  std::int64_t op = 0;       ///< operation id shared by one operation's spans
};

/// Single-threaded span recorder: spans nest by call order.
class SpanLog {
 public:
  SpanLog() : epoch_(Clock::now()) {}

  int open(std::string name, std::int64_t op);
  void close(int id);

  template <typename F>
  decltype(auto) time(std::string name, std::int64_t op, F&& body) {
    struct Closer {
      SpanLog* log;
      int id;
      ~Closer() { log->close(id); }
    } closer{this, open(std::move(name), op)};
    return body();
  }

  [[nodiscard]] const std::vector<SpanRecord>& spans() const noexcept { return spans_; }

  /// Chrome trace-event JSON ("X" events, microsecond timestamps); the
  /// operation id and parent span ride in each event's args.
  [[nodiscard]] std::string chromeJson() const;

 private:
  Clock::time_point epoch_;
  std::vector<SpanRecord> spans_;
  std::vector<int> stack_;
};

/// analyzeAndSimulate rebuilt from the public layer functions, serially (no
/// pool), with a span named after each layer around each call:
/// lcg.build, ilp.build, ilp.solve, driver.plan, comm.generate, dsm.model,
/// dsm.baseline, sim.trace, locality.symval, dsm.validate.
[[nodiscard]] ad::driver::PipelineResult runLayered(const ad::ir::Program& program,
                                                    const ad::driver::PipelineConfig& config,
                                                    SpanLog& log, std::int64_t op);

}  // namespace e2e
