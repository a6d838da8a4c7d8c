// Command-line parsing for the pipeline drivers (examples/tfft2_pipeline).
//
// Parsing is a pipeline boundary like any other: malformed input produces a
// structured Status (ErrorCode::kInvalidArgument) instead of a best-effort
// guess, and the driver maps it to the documented usage exit code. Every
// rejection rule here has a matching driver test (tests/cli_test.cpp).
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "support/status.hpp"

namespace ad::driver {

struct CliOptions {
  // Positional P/Q/H (TFFT2 problem sizes and processor count).
  std::int64_t P = 64;
  std::int64_t Q = 64;
  std::int64_t H = 8;

  bool simulate = false;  ///< --simulate: trace-replay + Theorem-1/2 check
  bool suite = false;     ///< --suite: run the whole benchmark suite (six 1999 codes + kernels)

  /// --validate=trace|symbolic|both: which validation oracle(s) to run (see
  /// docs/VALIDATION.md). Empty = none requested (--simulate implies trace).
  std::string validate;

  std::size_t jobs = 1;   ///< --jobs N (N >= 1)

  std::string traceOut;    ///< --trace-out=FILE
  std::string metricsOut;  ///< --metrics-out=FILE
  std::string profileOut;  ///< --profile-out=FILE (ad.profile.v2 summary)

  std::string faultSpec;       ///< --fault SPEC (see support/fault.hpp grammar)
  std::int64_t budgetSteps = 0;  ///< --budget-steps N (0 = unlimited)
  std::int64_t budgetMs = 0;     ///< --budget-ms N (0 = no deadline)

  // Service mode (docs/SERVICE.md). --serve and --client are mutually
  // exclusive, and each admits only the flags that make sense for it.
  std::string serve;    ///< --serve=PATH: run the analysis server on this socket
  std::string client;   ///< --client=PATH: send one request to this socket
  std::string source;   ///< --source=FILE: ADL program to submit (client mode)
  bool shutdownOp = false;       ///< --shutdown: ask the server to drain (client)
  std::vector<std::pair<std::string, std::int64_t>> params;  ///< --param NAME=VALUE
  std::int64_t processors = 8;   ///< --processors N (client request field)
  std::int64_t repeat = 1;       ///< --repeat N: submit the request N times
  std::int64_t retries = 6;      ///< --retries N: shed-retry budget (client)
  std::int64_t queueMax = 64;    ///< --queue N: admitted-request cap (serve)
  std::int64_t drainMs = 2000;   ///< --drain-ms N: shutdown grace (serve)
};

/// The usage message (printed on kInvalidArgument by the driver).
[[nodiscard]] std::string cliUsage(std::string_view argv0);

/// Parses argv. Rejections (all kInvalidArgument):
///  - unknown flags, and flags missing their value;
///  - --jobs 0, negative, or garbage (a complete integer is required);
///  - non-integer / out-of-range positionals, or more than three;
///  - positional sizes < 1;
///  - --budget-steps / --budget-ms negative or garbage;
///  - --validate= values other than trace, symbolic, or both;
///  - --suite combined with positional P/Q/H (the suite fixes its own sizes);
///  - --serve combined with --client, --suite, --simulate, --validate,
///    positionals, or any client-only flag (per-request analysis options
///    arrive over the wire, not on the server's command line);
///  - --client combined with --suite or positionals; --client without
///    exactly one of --source / --shutdown;
///  - serve-only flags (--queue, --drain-ms) outside --serve; client-only
///    flags (--source, --param, --processors, --repeat, --retries,
///    --shutdown) outside --client;
///  - malformed --param (want NAME=VALUE with integer VALUE), --queue < 1,
///    --repeat < 1, --retries < 0, --drain-ms < 0, --processors < 1.
/// The --fault spec is validated later by FaultInjector::configure (the
/// grammar lives there); parseCli only carries the string.
[[nodiscard]] Expected<CliOptions> parseCli(int argc, const char* const* argv);

}  // namespace ad::driver
