// Socket client for the analysis service, with bounded retry.
//
// call() sends one request frame and blocks for the response. When the
// server sheds with a retry-after hint, the client retries up to maxRetries
// times with capped exponential backoff plus deterministic jitter (a seeded
// splitmix64 stream, so tests replay the exact same schedule): sleeping
// max(server hint, min(cap, base * 2^attempt) / 2 + jitter) de-synchronizes
// a thundering herd of rejected clients. A shed with retry_after_ms == 0
// means the server is draining — the client gives up immediately, and so it
// never spins against a server that told it to go away.
#pragma once

#include <cstdint>
#include <string>

#include "service/protocol.hpp"
#include "support/status.hpp"

namespace ad::service {

struct ClientOptions {
  std::int64_t recvTimeoutMs = 60000;  ///< per-response wait (socket SO_RCVTIMEO)
  std::int64_t sendTimeoutMs = 10000;
  int maxRetries = 6;                  ///< on overload shedding only
  std::int64_t backoffBaseMs = 5;
  std::int64_t backoffCapMs = 250;
  std::uint64_t jitterSeed = 1;        ///< deterministic jitter stream
};

class Client {
 public:
  explicit Client(std::string path, ClientOptions options = {});
  ~Client();  ///< closes the connection

  Client(const Client&) = delete;
  Client& operator=(const Client&) = delete;

  /// Connects (or reconnects) to the server socket.
  [[nodiscard]] Status connect();

  /// One request/response exchange with shed-retry. I/O failures reconnect
  /// once per attempt (the server may have dropped the connection while
  /// shedding at the accept gate). The final shed after retries run out is
  /// returned as-is — the caller decides how to report exhaustion.
  [[nodiscard]] Expected<Response> call(const Request& request);

  /// One exchange, no retry, no reconnect.
  [[nodiscard]] Expected<Response> callOnce(const Request& request);

  void close();
  /// Shed responses absorbed by retries across all call()s (observability).
  [[nodiscard]] std::int64_t shedRetries() const noexcept { return shedRetries_; }

 private:
  [[nodiscard]] std::int64_t backoffDelayMs(int attempt, std::int64_t serverHintMs);

  std::string path_;
  ClientOptions options_;
  int fd_ = -1;
  std::uint64_t jitterState_;
  std::int64_t shedRetries_ = 0;
};

}  // namespace ad::service
