// The analysis service: wire protocol, per-request isolation, admission
// control, drain, and the hostile-client boundary (docs/SERVICE.md).
//
// The in-process Server tests need no sockets: submit()/call() exercise
// admission, budgets, cancellation, and drain directly, so the sanitizer
// legs run them cheaply. The socket tests then drive the same server through
// real AF_UNIX connections, including malformed frames, truncated bodies,
// lying length headers, byte-level fuzz, and a stalled client — a hostile
// peer must never crash or wedge the server, and a well-formed request
// afterwards must still be answered correctly.
#include <gtest/gtest.h>

#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstring>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "codes/suite.hpp"
#include "driver/pipeline.hpp"
#include "driver/serialize.hpp"
#include "frontend/parser.hpp"
#include "service/client.hpp"
#include "service/json.hpp"
#include "service/protocol.hpp"
#include "service/server.hpp"
#include "service/wire.hpp"
#include "support/fault.hpp"

namespace ad {
namespace {

using service::Op;
using service::Request;
using service::Response;
using service::ResponseKind;

/// A two-phase stream program: cheap to analyze at small N, and with
/// --validate=trace an effective "slow request" at large N (the enumerating
/// simulator touches all 3N accesses).
constexpr const char* kStreamSource =
    "param N\n"
    "array A(N)\n"
    "array B(N)\n"
    "phase F1 { doall i = 0, N - 1 { write A(i) } }\n"
    "phase F2 { doall i = 0, N - 1 { read A(i) write B(i) } }\n";

/// The golden a single-shot (CLI-equivalent) run of `source` produces.
std::string referenceGolden(const std::string& source,
                            const std::map<std::string, std::int64_t>& params,
                            std::int64_t processors) {
  const ir::Program prog = frontend::parseProgram(source);
  driver::PipelineConfig config;
  config.params = codes::bindParams(prog, params);
  config.processors = processors;
  config.simulatePlan = false;
  config.simulateBaseline = false;
  const driver::PipelineResult result = driver::analyzeAndSimulate(prog, config);
  return driver::serializeGolden(result, prog);
}

Request analyzeRequest(std::string id, std::int64_t n = 64) {
  Request r;
  r.op = Op::kAnalyze;
  r.id = std::move(id);
  r.source = kStreamSource;
  r.params["N"] = n;
  r.processors = 4;
  return r;
}

/// A request that occupies a worker for hundreds of milliseconds: large-N
/// trace validation enumerates every access.
Request slowRequest(std::string id) {
  Request r = analyzeRequest(std::move(id), 1 << 20);
  r.validate = "trace";
  return r;
}

// ---------------------------------------------------------------------------
// JSON: the hostile-input parser
// ---------------------------------------------------------------------------

TEST(ServiceJson, ParsesScalarsContainersAndEscapes) {
  const auto doc = service::json::parse(
      R"({"a":1,"b":-7,"c":"x\n\"Aé","d":[true,false,null],"e":{"f":2.5}})");
  ASSERT_TRUE(doc.has_value()) << doc.status().str();
  EXPECT_EQ(doc->find("a")->integer, 1);
  EXPECT_EQ(doc->find("b")->integer, -7);
  EXPECT_EQ(doc->find("c")->str, "x\n\"A\xC3\xA9");
  ASSERT_EQ(doc->find("d")->array.size(), 3u);
  EXPECT_EQ(doc->find("e")->find("f")->number, 2.5);
}

TEST(ServiceJson, ParsesSurrogatePairs) {
  const auto doc = service::json::parse(R"({"s":"😀"})");
  ASSERT_TRUE(doc.has_value()) << doc.status().str();
  EXPECT_EQ(doc->find("s")->str, "\xF0\x9F\x98\x80");
}

TEST(ServiceJson, RejectsMalformedDocuments) {
  const char* bad[] = {
      "",            "{",           "[1,]",         R"({"a":})",     "tru",
      R"({"a" 1})",  "[1 2]",       R"("unterminated)", "nan",       "01",
      "1.",          "1e",          R"({"s":"\q"})", R"({"s":"\ud800"})",
      R"({"s":"raw
newline"})",   "{}extra",
  };
  for (const char* text : bad) {
    const auto doc = service::json::parse(text);
    EXPECT_FALSE(doc.has_value()) << "accepted: " << text;
    EXPECT_EQ(doc.status().code(), ErrorCode::kInvalidArgument);
  }
}

TEST(ServiceJson, EnforcesDepthElementAndSizeCaps) {
  service::json::Limits limits;
  limits.maxDepth = 4;
  EXPECT_FALSE(service::json::parse("[[[[[1]]]]]", limits).has_value());
  EXPECT_TRUE(service::json::parse("[[[1]]]", limits).has_value());

  limits = {};
  limits.maxElements = 3;
  EXPECT_FALSE(service::json::parse("[1,2,3,4]", limits).has_value());

  limits = {};
  limits.maxBytes = 8;
  EXPECT_FALSE(service::json::parse("[1,2,3,4,5]", limits).has_value());
}

TEST(ServiceJson, DumpRoundTripsByteStably) {
  const char* text = R"({"k":[1,-2,"x\n",true,null],"z":{"a":"b"}})";
  const auto once = service::json::parse(text);
  ASSERT_TRUE(once.has_value());
  const std::string dumped = once->dump();
  const auto twice = service::json::parse(dumped);
  ASSERT_TRUE(twice.has_value()) << twice.status().str();
  EXPECT_EQ(dumped, twice->dump());
}

TEST(ServiceJson, HugeIntegersFallBackToDouble) {
  const auto doc = service::json::parse("[9223372036854775807,92233720368547758080]");
  ASSERT_TRUE(doc.has_value());
  EXPECT_EQ(doc->array[0].kind, service::json::Value::Kind::kInt);
  EXPECT_EQ(doc->array[1].kind, service::json::Value::Kind::kDouble);
}

// ---------------------------------------------------------------------------
// Protocol: framing and message round trips
// ---------------------------------------------------------------------------

TEST(ServiceProtocol, FrameHeaderIsBigEndianAndValidated) {
  const std::string frame = service::encodeFrame("abc");
  ASSERT_EQ(frame.size(), 7u);
  EXPECT_EQ(frame[0], 0); EXPECT_EQ(frame[1], 0); EXPECT_EQ(frame[2], 0);
  EXPECT_EQ(frame[3], 3);
  EXPECT_EQ(frame.substr(4), "abc");

  const unsigned char zero[4] = {0, 0, 0, 0};
  EXPECT_FALSE(service::decodeFrameLength(zero).has_value());
  const unsigned char huge[4] = {0x7F, 0xFF, 0xFF, 0xFF};
  EXPECT_FALSE(service::decodeFrameLength(huge).has_value());
  const unsigned char fine[4] = {0, 0, 1, 0};
  const auto n = service::decodeFrameLength(fine);
  ASSERT_TRUE(n.has_value());
  EXPECT_EQ(*n, 256u);
}

TEST(ServiceProtocol, RequestRoundTrips) {
  Request request = analyzeRequest("r42", 128);
  request.validate = "both";
  request.simulate = true;
  request.budgetSteps = 1000;
  request.deadlineMs = 250;
  const auto parsed = service::parseRequest(service::serializeRequest(request));
  ASSERT_TRUE(parsed.has_value()) << parsed.status().str();
  EXPECT_EQ(parsed->op, Op::kAnalyze);
  EXPECT_EQ(parsed->id, "r42");
  EXPECT_EQ(parsed->source, kStreamSource);
  EXPECT_EQ(parsed->params.at("N"), 128);
  EXPECT_EQ(parsed->processors, 4);
  EXPECT_EQ(parsed->validate, "both");
  EXPECT_TRUE(parsed->simulate);
  EXPECT_EQ(parsed->budgetSteps, 1000);
  EXPECT_EQ(parsed->deadlineMs, 250);
}

TEST(ServiceProtocol, ResponseRoundTripsEveryKind) {
  Response degraded;
  degraded.id = "d1";
  degraded.kind = ResponseKind::kDegraded;
  degraded.golden = "{\"schema\":\"ad.golden.v1\"}";
  degraded.degradation = {"lcg.edge [X]: label=C (budget.steps)"};
  degraded.queueUs = 12;
  degraded.runUs = 345;
  const auto parsed = service::parseResponse(service::serializeResponse(degraded));
  ASSERT_TRUE(parsed.has_value()) << parsed.status().str();
  EXPECT_EQ(parsed->kind, ResponseKind::kDegraded);
  EXPECT_EQ(parsed->golden, degraded.golden);
  EXPECT_EQ(parsed->degradation, degraded.degradation);
  EXPECT_EQ(parsed->queueUs, 12);
  EXPECT_EQ(parsed->runUs, 345);

  Response shed;
  shed.kind = ResponseKind::kShed;
  shed.retryAfterMs = 20;
  const auto parsedShed = service::parseResponse(service::serializeResponse(shed));
  ASSERT_TRUE(parsedShed.has_value());
  EXPECT_TRUE(parsedShed->isShed());
  EXPECT_EQ(parsedShed->retryAfterMs, 20);

  Response error;
  error.id = "e1";
  error.kind = ResponseKind::kError;
  error.errorCode = "parse";
  error.error = "parse error: 1:1: nope";
  const auto parsedError = service::parseResponse(service::serializeResponse(error));
  ASSERT_TRUE(parsedError.has_value());
  EXPECT_EQ(parsedError->errorCode, "parse");
  EXPECT_EQ(parsedError->error, error.error);
}

TEST(ServiceProtocol, RejectsHostileMessages) {
  EXPECT_FALSE(service::parseRequest("[]").has_value());
  EXPECT_FALSE(service::parseRequest("{}").has_value());                      // no op
  EXPECT_FALSE(service::parseRequest(R"({"op":"launch-missiles"})").has_value());
  EXPECT_FALSE(service::parseRequest(R"({"op":7})").has_value());
  EXPECT_FALSE(service::parseRequest(R"({"op":"cancel"})").has_value());      // no id
  EXPECT_FALSE(service::parseRequest(R"({"op":"analyze","processors":0})").has_value());
  EXPECT_FALSE(service::parseRequest(R"({"op":"analyze","processors":-4})").has_value());
  EXPECT_FALSE(service::parseRequest(R"({"op":"analyze","budget_steps":-1})").has_value());
  EXPECT_FALSE(service::parseRequest(R"({"op":"analyze","params":[1]})").has_value());
  EXPECT_FALSE(service::parseRequest(R"({"op":"analyze","params":{"N":"big"}})").has_value());
  EXPECT_FALSE(service::parseRequest(R"({"op":"analyze","simulate":"yes"})").has_value());
  EXPECT_FALSE(service::parseResponse(R"({"kind":"gift"})").has_value());
  EXPECT_FALSE(service::parseResponse(R"({"id":"x"})").has_value());
}

// ---------------------------------------------------------------------------
// In-process Server: isolation, admission, cancellation, drain
// ---------------------------------------------------------------------------

TEST(ServiceServer, CleanRequestMatchesSingleShotGoldenByteForByte) {
  service::Server server({.workers = 2});
  const Response response = server.call(analyzeRequest("r1"));
  ASSERT_EQ(response.kind, ResponseKind::kOk) << response.error;
  EXPECT_EQ(response.id, "r1");
  EXPECT_EQ(response.golden, referenceGolden(kStreamSource, {{"N", 64}}, 4));
  EXPECT_GE(response.runUs, 0);
}

TEST(ServiceServer, RepeatedRequestsStayByteIdentical) {
  service::Server server({.workers = 4});
  const std::string reference = referenceGolden(kStreamSource, {{"N", 64}}, 4);
  std::vector<service::RequestHandlePtr> handles;
  for (int i = 0; i < 16; ++i) {
    handles.push_back(server.submit(analyzeRequest("r" + std::to_string(i))));
  }
  for (auto& handle : handles) {
    const Response response = handle->wait();
    ASSERT_EQ(response.kind, ResponseKind::kOk) << response.error;
    EXPECT_EQ(response.golden, reference);
  }
  EXPECT_EQ(server.stats().ok, 16);
}

TEST(ServiceServer, MalformedSourceYieldsStructuredParseError) {
  service::Server server({.workers = 1});
  Request request = analyzeRequest("bad");
  request.source = "phase oops {";
  const Response response = server.call(std::move(request));
  ASSERT_EQ(response.kind, ResponseKind::kError);
  EXPECT_EQ(response.errorCode, "parse");
  EXPECT_NE(response.error.find("request=bad"), std::string::npos) << response.error;
}

TEST(ServiceServer, MissingParameterYieldsStructuredError) {
  service::Server server({.workers = 1});
  Request request = analyzeRequest("noparam");
  request.params.clear();
  request.params["WRONG"] = 1;
  const Response response = server.call(std::move(request));
  ASSERT_EQ(response.kind, ResponseKind::kError);
  EXPECT_FALSE(response.errorCode.empty());
  EXPECT_NE(response.error.find("request=noparam"), std::string::npos) << response.error;
}

TEST(ServiceServer, AdmissionValidatesBeforeQueueing) {
  service::ServerOptions options;
  options.workers = 1;
  options.maxSourceBytes = 16;
  options.maxProcessors = 8;
  service::Server server(options);

  Request empty = analyzeRequest("e");
  empty.source.clear();
  EXPECT_EQ(server.call(std::move(empty)).kind, ResponseKind::kError);

  const Response big = server.call(analyzeRequest("big"));  // source > 16 bytes
  ASSERT_EQ(big.kind, ResponseKind::kError);
  EXPECT_EQ(big.errorCode, "invalid_argument");
  EXPECT_NE(big.error.find("16-byte cap"), std::string::npos) << big.error;

  Request manyProcs = analyzeRequest("p");
  manyProcs.processors = 64;
  EXPECT_EQ(server.call(std::move(manyProcs)).errorCode, "invalid_argument");

  Request badValidate = analyzeRequest("v");
  badValidate.validate = "vibes";
  EXPECT_EQ(server.call(std::move(badValidate)).errorCode, "invalid_argument");

  EXPECT_EQ(server.stats().accepted, 0) << "invalid requests must not consume queue slots";
}

TEST(ServiceServer, BudgetStarvedRequestDegradesWithoutPoisoningNeighbours) {
  service::Server server({.workers = 2});
  const std::string reference = referenceGolden(kStreamSource, {{"N", 64}}, 4);

  Request starved = analyzeRequest("starved");
  starved.budgetSteps = 1;  // exhausts on the first prover step
  auto starvedHandle = server.submit(std::move(starved));
  auto cleanHandle = server.submit(analyzeRequest("clean"));

  const Response starvedResponse = starvedHandle->wait();
  ASSERT_EQ(starvedResponse.kind, ResponseKind::kDegraded) << starvedResponse.error;
  EXPECT_FALSE(starvedResponse.degradation.empty());
  EXPECT_FALSE(starvedResponse.golden.empty());
  EXPECT_NE(starvedResponse.golden, reference) << "a degraded golden records the ladder";

  const Response cleanResponse = cleanHandle->wait();
  ASSERT_EQ(cleanResponse.kind, ResponseKind::kOk) << cleanResponse.error;
  EXPECT_EQ(cleanResponse.golden, reference)
      << "one starved request must not degrade its neighbour";
}

TEST(ServiceServer, ServerSideBudgetCapAppliesToEveryRequest) {
  service::ServerOptions options;
  options.workers = 1;
  options.maxBudgetSteps = 1;  // policy: nobody gets more than one step
  service::Server server(options);
  const Response response = server.call(analyzeRequest("capped"));
  ASSERT_EQ(response.kind, ResponseKind::kDegraded);
  EXPECT_FALSE(response.degradation.empty());
}

TEST(ServiceServer, CancelledQueuedRequestAnswersWithoutRunning) {
  service::Server server({.workers = 1});
  // Occupy the single worker, then queue victims behind it.
  auto blocker = server.submit(slowRequest("blocker"));
  std::vector<service::RequestHandlePtr> victims;
  for (int i = 0; i < 4; ++i) {
    victims.push_back(server.submit(analyzeRequest("victim" + std::to_string(i))));
  }
  for (auto& v : victims) v->cancel();
  for (auto& v : victims) {
    EXPECT_EQ(v->wait().kind, ResponseKind::kCancelled);
  }
  EXPECT_EQ(blocker->wait().kind, ResponseKind::kOk)
      << "cancelling queued requests must not touch the running one";
  EXPECT_EQ(server.stats().cancelled, 4);
}

TEST(ServiceServer, InFlightCancelAbortsARunningRequestInBoundedWork) {
  service::Server server({.workers = 1});
  // N = 2^22 with trace validation enumerates ~12M accesses (~1 s of replay),
  // so 50 ms in, the request is mid-flight — likely deep in the simulator.
  Request big = analyzeRequest("running", 1 << 22);
  big.validate = "trace";
  auto handle = server.submit(std::move(big));
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  const auto cancelAt = std::chrono::steady_clock::now();
  handle->cancel();
  const Response response = handle->wait();
  const auto tookMs = std::chrono::duration_cast<std::chrono::milliseconds>(
                          std::chrono::steady_clock::now() - cancelAt)
                          .count();
  ASSERT_EQ(response.kind, ResponseKind::kCancelled) << response.error;
  // The prover polls every step and the replay every 4096 accesses, so the
  // abort is bounded work, not "finish the remaining millions of accesses".
  // The generous ceiling keeps the assertion meaningful under sanitizers.
  EXPECT_LT(tookMs, 10000);
  EXPECT_EQ(server.stats().cancelled, 1);
}

TEST(ServiceServer, CancelByIdThroughTheControlPlane) {
  service::Server server({.workers = 1});
  auto blocker = server.submit(slowRequest("blocker"));
  auto victim = server.submit(analyzeRequest("the-victim"));

  Request cancel;
  cancel.op = Op::kCancel;
  cancel.id = "the-victim";
  const Response ack = server.call(std::move(cancel));
  ASSERT_EQ(ack.kind, ResponseKind::kInfo);
  EXPECT_NE(ack.info.find("\"cancelled\":true"), std::string::npos) << ack.info;

  EXPECT_EQ(victim->wait().kind, ResponseKind::kCancelled);
  EXPECT_EQ(blocker->wait().kind, ResponseKind::kOk);

  Request missing;
  missing.op = Op::kCancel;
  missing.id = "no-such-request";
  EXPECT_NE(server.call(std::move(missing)).info.find("\"cancelled\":false"),
            std::string::npos);
}

TEST(ServiceServer, OverloadShedsWithRetryHintAndDrainShedsFinally) {
  service::ServerOptions options;
  options.workers = 1;
  options.queueCapacity = 2;
  options.retryAfterMs = 17;
  options.drainMs = 30000;  // generous: the drain must *complete* this work
  service::Server server(options);

  Request medium = analyzeRequest("blocker", 1 << 18);  // ~tens of ms
  medium.validate = "trace";
  auto blocker = server.submit(std::move(medium));        // running: slot 1
  auto queued = server.submit(analyzeRequest("queued"));  // queued: slot 2
  const Response shed = server.call(analyzeRequest("overflow"));
  ASSERT_EQ(shed.kind, ResponseKind::kShed);
  EXPECT_EQ(shed.retryAfterMs, 17) << "overload shedding carries the retry hint";

  // Begin draining via the control plane: new work is refused with the
  // distinct "don't retry" rejection while in-flight work completes.
  Request drain;
  drain.op = Op::kShutdown;
  const Response ack = server.call(std::move(drain));
  ASSERT_EQ(ack.kind, ResponseKind::kInfo);
  EXPECT_TRUE(server.draining());
  const Response refused = server.call(analyzeRequest("late"));
  ASSERT_EQ(refused.kind, ResponseKind::kShed);
  EXPECT_EQ(refused.retryAfterMs, 0) << "draining rejections must say 'do not retry'";

  server.shutdown();
  const Response blockerResponse = blocker->wait();
  EXPECT_EQ(blockerResponse.kind, ResponseKind::kOk) << blockerResponse.error;
  EXPECT_EQ(queued->wait().kind, ResponseKind::kOk)
      << "draining must complete already-admitted work, not drop it";

  const service::ServerStats stats = server.stats();
  EXPECT_EQ(stats.shedOverload, 1);
  EXPECT_EQ(stats.shedDraining, 1);
  EXPECT_EQ(stats.inFlight, 0);
}

TEST(ServiceServer, DeadlineSpentInQueueIsRefusedWithoutRunning) {
  service::Server server({.workers = 1});
  auto blocker = server.submit(slowRequest("blocker"));
  Request doomed = analyzeRequest("doomed");
  doomed.deadlineMs = 1;  // the blocker runs for hundreds of ms
  const Response response = server.call(std::move(doomed));
  ASSERT_EQ(response.kind, ResponseKind::kError);
  EXPECT_EQ(response.errorCode, "deadline");
  EXPECT_NE(response.error.find("accept queue"), std::string::npos) << response.error;
  EXPECT_EQ(blocker->wait().kind, ResponseKind::kOk);
  EXPECT_EQ(server.stats().queueExpired, 1);
}

TEST(ServiceServer, PingAndStatsAnswerInlineEvenWhenBusy) {
  service::Server server({.workers = 1, .queueCapacity = 1});
  auto blocker = server.submit(slowRequest("blocker"));  // saturates the queue

  Request ping;
  ping.op = Op::kPing;
  const Response pong = server.call(std::move(ping));
  ASSERT_EQ(pong.kind, ResponseKind::kInfo);
  EXPECT_NE(pong.info.find("ad.service.v1"), std::string::npos);

  Request stats;
  stats.op = Op::kStats;
  const Response statsResponse = server.call(std::move(stats));
  ASSERT_EQ(statsResponse.kind, ResponseKind::kInfo);
  EXPECT_NE(statsResponse.info.find("\"in_flight\":1"), std::string::npos)
      << statsResponse.info;
  EXPECT_EQ(blocker->wait().kind, ResponseKind::kOk);
}

TEST(ServiceServer, FaultInHandlerStaysAStructuredPerRequestError) {
  ASSERT_TRUE(support::FaultInjector::global().configure("service.handle@2").isOk());
  service::Server server({.workers = 1});
  const Response first = server.call(analyzeRequest("first"));
  EXPECT_EQ(first.kind, ResponseKind::kOk) << first.error;
  const Response faulted = server.call(analyzeRequest("faulted"));
  ASSERT_EQ(faulted.kind, ResponseKind::kError);
  EXPECT_EQ(faulted.errorCode, "fault");
  const Response after = server.call(analyzeRequest("after"));
  EXPECT_EQ(after.kind, ResponseKind::kOk)
      << "a faulted request must not poison the next one: " << after.error;
  support::FaultInjector::global().clear();
}

// ---------------------------------------------------------------------------
// Socket layer: real connections, hostile bytes
// ---------------------------------------------------------------------------

std::string uniqueSocketPath() {
  static std::atomic<int> counter{0};
  return "/tmp/ad_svc_" + std::to_string(::getpid()) + "_" +
         std::to_string(counter.fetch_add(1)) + ".sock";
}

int rawConnect(const std::string& path) {
  const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (fd < 0) return -1;
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0) {
    ::close(fd);
    return -1;
  }
  return fd;
}

void sendRaw(int fd, const std::string& bytes) {
  ASSERT_EQ(::send(fd, bytes.data(), bytes.size(), MSG_NOSIGNAL),
            static_cast<ssize_t>(bytes.size()));
}

class ServiceSocket : public ::testing::Test {
 protected:
  void SetUp() override {
    service::ServerOptions serverOptions;
    serverOptions.workers = 2;
    serverOptions.drainMs = 250;
    core_ = std::make_unique<service::Server>(serverOptions);
    service::SocketOptions socketOptions;
    socketOptions.path = uniqueSocketPath();
    socketOptions.recvTimeoutMs = 500;  // a stalled client must not wedge us
    wire_ = std::make_unique<service::SocketServer>(*core_, socketOptions);
    ASSERT_TRUE(wire_->start().isOk());
  }

  void TearDown() override {
    wire_->stop();
    core_->shutdown();
  }

  [[nodiscard]] const std::string& path() const { return wire_->path(); }

  /// The server must still answer a well-formed request correctly.
  void expectServerHealthy() {
    service::Client client(path());
    const auto response = client.call(analyzeRequest("health"));
    ASSERT_TRUE(response.has_value()) << response.status().str();
    ASSERT_EQ(response->kind, ResponseKind::kOk) << response->error;
    EXPECT_EQ(response->golden, referenceGolden(kStreamSource, {{"N", 64}}, 4));
  }

  std::unique_ptr<service::Server> core_;
  std::unique_ptr<service::SocketServer> wire_;
};

TEST_F(ServiceSocket, RoundTripsAnalyzeAndControlOps) {
  service::Client client(path());
  const auto response = client.call(analyzeRequest("s1"));
  ASSERT_TRUE(response.has_value()) << response.status().str();
  ASSERT_EQ(response->kind, ResponseKind::kOk) << response->error;
  EXPECT_EQ(response->golden, referenceGolden(kStreamSource, {{"N", 64}}, 4));

  Request ping;
  ping.op = Op::kPing;
  const auto pong = client.call(ping);
  ASSERT_TRUE(pong.has_value());
  EXPECT_EQ(pong->kind, ResponseKind::kInfo);

  Request stats;
  stats.op = Op::kStats;
  const auto statsResponse = client.call(stats);
  ASSERT_TRUE(statsResponse.has_value());
  EXPECT_NE(statsResponse->info.find("\"ok\":1"), std::string::npos)
      << statsResponse->info;
}

TEST_F(ServiceSocket, ZeroAndOversizedLengthHeadersAreRejected) {
  int fd = rawConnect(path());
  ASSERT_GE(fd, 0);
  sendRaw(fd, std::string(4, '\0'));  // length 0
  auto reply = service::readFrame(fd);
  ASSERT_TRUE(reply.has_value()) << reply.status().str();
  auto parsed = service::parseResponse(*reply);
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->kind, ResponseKind::kError);
  EXPECT_EQ(parsed->errorCode, "invalid_argument");
  ::close(fd);

  fd = rawConnect(path());
  ASSERT_GE(fd, 0);
  sendRaw(fd, std::string("\x7F\xFF\xFF\xFF", 4));  // ~2 GiB claim
  reply = service::readFrame(fd);
  ASSERT_TRUE(reply.has_value()) << reply.status().str();
  parsed = service::parseResponse(*reply);
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->kind, ResponseKind::kError);
  EXPECT_NE(parsed->error.find("cap"), std::string::npos) << parsed->error;
  ::close(fd);

  expectServerHealthy();
}

TEST_F(ServiceSocket, TruncatedBodyIsReportedNotHungOn) {
  const int fd = rawConnect(path());
  ASSERT_GE(fd, 0);
  std::string frame = service::encodeFrame(std::string(100, 'x'));
  frame.resize(14);             // header promises 100 bytes, deliver 10
  sendRaw(fd, frame);
  ::shutdown(fd, SHUT_WR);      // EOF mid-body
  const auto reply = service::readFrame(fd);
  ASSERT_TRUE(reply.has_value()) << reply.status().str();
  const auto parsed = service::parseResponse(*reply);
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->kind, ResponseKind::kError);
  EXPECT_NE(parsed->error.find("truncated"), std::string::npos) << parsed->error;
  ::close(fd);
  expectServerHealthy();
}

TEST_F(ServiceSocket, GarbagePayloadsGetStructuredErrors) {
  const char* payloads[] = {
      "not json at all",
      "[1,2,3]",
      "{}",
      R"({"op":"make-coffee"})",
      R"({"op":"analyze","processors":0})",
  };
  for (const char* payload : payloads) {
    const int fd = rawConnect(path());
    ASSERT_GE(fd, 0);
    sendRaw(fd, service::encodeFrame(payload));
    const auto reply = service::readFrame(fd);
    ASSERT_TRUE(reply.has_value()) << payload << ": " << reply.status().str();
    const auto parsed = service::parseResponse(*reply);
    ASSERT_TRUE(parsed.has_value()) << payload;
    EXPECT_EQ(parsed->kind, ResponseKind::kError) << payload;
    ::close(fd);
  }
  expectServerHealthy();
}

TEST_F(ServiceSocket, StalledClientTimesOutInsteadOfWedging) {
  const int fd = rawConnect(path());
  ASSERT_GE(fd, 0);
  sendRaw(fd, std::string("\0\0", 2));  // half a header, then silence
  // The server's 500 ms receive timeout must fire and answer with a deadline
  // error rather than holding the connection (and its thread) forever.
  const auto reply = service::readFrame(fd);
  ASSERT_TRUE(reply.has_value()) << reply.status().str();
  const auto parsed = service::parseResponse(*reply);
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->kind, ResponseKind::kError);
  EXPECT_EQ(parsed->errorCode, "deadline");
  ::close(fd);
  expectServerHealthy();
}

TEST_F(ServiceSocket, ByteLevelFuzzNeverCrashesOrWedgesTheServer) {
  std::mt19937 rng(20260807);
  std::uniform_int_distribution<int> byteDist(0, 255);
  std::uniform_int_distribution<int> lenDist(0, 48);
  for (int i = 0; i < 150; ++i) {
    const int fd = rawConnect(path());
    ASSERT_GE(fd, 0) << "server stopped accepting at iteration " << i;
    const int mode = i % 3;
    std::string bytes;
    if (mode == 0) {
      // Correct header, random payload bytes.
      std::string payload;
      for (int n = lenDist(rng) + 1, j = 0; j < n; ++j) {
        payload += static_cast<char>(byteDist(rng));
      }
      bytes = service::encodeFrame(payload);
    } else if (mode == 1) {
      // Random header, nothing else: lying lengths, then EOF.
      for (int j = 0; j < 4; ++j) bytes += static_cast<char>(byteDist(rng));
    } else {
      // Random byte soup of random length (may be a partial header).
      for (int n = lenDist(rng), j = 0; j < n; ++j) {
        bytes += static_cast<char>(byteDist(rng));
      }
    }
    if (!bytes.empty()) {
      (void)::send(fd, bytes.data(), bytes.size(), MSG_NOSIGNAL);
    }
    ::shutdown(fd, SHUT_WR);
    // Drain whatever the server answers (error frame or close); never block
    // past the server's own timeout.
    (void)service::readFrame(fd);
    ::close(fd);
  }
  expectServerHealthy();
}

TEST_F(ServiceSocket, ShutdownOpDrainsOverTheWire) {
  service::Client client(path());
  const auto before = client.call(analyzeRequest("pre-drain"));
  ASSERT_TRUE(before.has_value());
  EXPECT_EQ(before->kind, ResponseKind::kOk);

  Request shutdown;
  shutdown.op = Op::kShutdown;
  const auto ack = client.call(shutdown);
  ASSERT_TRUE(ack.has_value()) << ack.status().str();
  EXPECT_EQ(ack->kind, ResponseKind::kInfo);
  wire_->waitForShutdownRequest();
  EXPECT_TRUE(wire_->shutdownRequested());
  EXPECT_TRUE(core_->draining());

  // New requests on a fresh connection are refused with the no-retry shed.
  service::Client late(path());
  const auto refused = late.call(analyzeRequest("late"));
  ASSERT_TRUE(refused.has_value()) << refused.status().str();
  EXPECT_EQ(refused->kind, ResponseKind::kShed);
  EXPECT_EQ(refused->retryAfterMs, 0);

  core_->shutdown();
  EXPECT_EQ(core_->stats().inFlight, 0);
}

TEST_F(ServiceSocket, ClientAbsorbsShedsWithBackoffAndSucceeds) {
  // Saturate the 2-worker server with slow requests so a fast one is shed,
  // then let the client's capped-backoff retries ride out the burst.
  service::ServerOptions tinyOptions;
  tinyOptions.workers = 1;
  tinyOptions.queueCapacity = 1;
  tinyOptions.retryAfterMs = 10;
  service::Server tiny(tinyOptions);
  service::SocketOptions socketOptions;
  socketOptions.path = uniqueSocketPath();
  service::SocketServer tinyWire(tiny, socketOptions);
  ASSERT_TRUE(tinyWire.start().isOk());

  auto blocker = tiny.submit(slowRequest("blocker"));  // fills the only slot

  // The retry window must outlast the blocker at any build speed: a
  // sanitizer build runs it many times slower than the plain one. Past the
  // cap every backoff sleeps >= 32 ms, so 1000 retries cover >= 30 s; the
  // client stops at its first success, so a fast build never waits that long.
  service::ClientOptions clientOptions;
  clientOptions.maxRetries = 1000;
  clientOptions.backoffBaseMs = 8;
  clientOptions.backoffCapMs = 64;
  clientOptions.jitterSeed = 7;
  service::Client client(socketOptions.path, clientOptions);
  const auto response = client.call(analyzeRequest("retry-me"));
  ASSERT_TRUE(response.has_value()) << response.status().str();
  EXPECT_EQ(response->kind, ResponseKind::kOk) << response->error;
  EXPECT_GT(client.shedRetries(), 0) << "the request should have been shed at least once";
  EXPECT_EQ(blocker->wait().kind, ResponseKind::kOk);

  tinyWire.stop();
  tiny.shutdown();
}

}  // namespace
}  // namespace ad
