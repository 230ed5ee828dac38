// QueryClient (src/client/client.h) suite, driven by a scriptable
// in-test fake frame server so every failure mode is injected
// deterministically:
//
//   - deadline propagation: each attempt's wire deadline_ms is strictly
//     the remaining end-to-end budget, observed by recording what the
//     server actually received per attempt;
//   - retry classification: transient wire errors and transport
//     failures retry, semantic verdicts are terminal;
//   - the circuit breaker's full closed -> open -> half-open -> closed
//     cycle under injected faults, with exact counter reconciliation
//     against the fake server's request log.
//
// Runs under ASan (asan-focus) and TSan (threaded) in CI.

#include <gtest/gtest.h>

#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstring>
#include <functional>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "src/client/client.h"
#include "src/server/frame.h"
#include "tests/serve_test_util.h"

namespace treewalk {
namespace {

using serve_test::kAcceptAllProgram;
using serve_test::ReadAll;
using serve_test::WriteAll;

/// A single-connection-at-a-time frame server whose behavior per query
/// is decided by a script callback.  It records every query's wire
/// deadline_ms, which is how the deadline-propagation tests observe
/// what the client actually sent.
class FakeServer {
 public:
  struct Action {
    enum Kind {
      kResult,   ///< answer kQueryResult{accepted}
      kError,    ///< answer kError{code}
      kClose,    ///< close the connection without answering
    };
    Kind kind = kResult;
    bool accepted = true;
    WireError code = WireError::kOverloaded;
    std::int64_t delay_ms = 0;  ///< sleep before acting (all kinds)
  };
  /// Called once per received query with its decoded request and
  /// zero-based global index.
  using Script = std::function<Action(const QueryRequest&, int index)>;

  explicit FakeServer(Script script) : script_(std::move(script)) {
    listen_fd_ = socket(AF_INET, SOCK_STREAM, 0);
    struct sockaddr_in addr = {};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = 0;
    int one = 1;
    setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
    bind(listen_fd_, reinterpret_cast<struct sockaddr*>(&addr), sizeof(addr));
    listen(listen_fd_, 16);
    socklen_t len = sizeof(addr);
    getsockname(listen_fd_, reinterpret_cast<struct sockaddr*>(&addr), &len);
    port_ = ntohs(addr.sin_port);
    thread_ = std::thread([this] { Serve(); });
  }

  ~FakeServer() { Stop(); }

  int port() const { return port_; }

  void Stop() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      if (stopped_) return;
      stopped_ = true;
    }
    cv_.notify_all();
    thread_.join();
    close(listen_fd_);
  }

  std::vector<std::uint32_t> deadlines() const {
    std::lock_guard<std::mutex> lock(mu_);
    return deadlines_;
  }
  int queries_seen() const {
    std::lock_guard<std::mutex> lock(mu_);
    return static_cast<int>(deadlines_.size());
  }

 private:
  bool Stopped() const {
    std::lock_guard<std::mutex> lock(mu_);
    return stopped_;
  }

  /// Sleeps up to `ms`, waking early on Stop().
  void WaitOrStop(std::int64_t ms) {
    std::unique_lock<std::mutex> lock(mu_);
    cv_.wait_for(lock, std::chrono::milliseconds(ms),
                 [this] { return stopped_; });
  }

  void Serve() {
    while (!Stopped()) {
      struct pollfd pfd = {listen_fd_, POLLIN, 0};
      int n = poll(&pfd, 1, 50);
      if (n <= 0) continue;
      int conn = accept(listen_fd_, nullptr, nullptr);
      if (conn < 0) continue;
      ServeConnection(conn);
      close(conn);
    }
  }

  void ServeConnection(int conn) {
    // A stall keeps the connection (and this loop) busy, so a stuck
    // read must not outlive the test: bound every recv.
    struct timeval tv = {5, 0};
    setsockopt(conn, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
    while (!Stopped()) {
      unsigned char prefix[4];
      if (!ReadAll(conn, prefix, sizeof(prefix))) return;
      Result<std::uint32_t> len = DecodeFrameLength(prefix);
      if (!len.ok()) return;
      std::string payload(*len, '\0');
      if (!ReadAll(conn, payload.data(), payload.size())) return;
      Result<Frame> frame = DecodeFramePayload(payload);
      if (!frame.ok()) return;
      if (frame->type == MessageType::kPing) {
        if (!WriteAll(conn, EncodeFrame(MessageType::kPong, ""))) return;
        continue;
      }
      if (frame->type != MessageType::kQuery) return;
      Result<QueryRequest> query = DecodeQueryRequest(frame->body);
      if (!query.ok()) return;
      Action action;
      {
        std::lock_guard<std::mutex> lock(mu_);
        int index = static_cast<int>(deadlines_.size());
        deadlines_.push_back(query->deadline_ms);
        action = script_(*query, index);
      }
      if (action.delay_ms > 0) WaitOrStop(action.delay_ms);
      switch (action.kind) {
        case Action::kResult: {
          QueryResultMsg result;
          result.accepted = action.accepted;
          result.steps = 1;
          if (!WriteAll(conn, EncodeFrame(MessageType::kQueryResult,
                                          EncodeQueryResult(result)))) {
            return;
          }
          break;
        }
        case Action::kError: {
          ErrorMsg error;
          error.code = action.code;
          error.message = "injected";
          if (!WriteAll(conn, EncodeFrame(MessageType::kError,
                                          EncodeError(error)))) {
            return;
          }
          break;
        }
        case Action::kClose:
          return;
      }
    }
  }

  Script script_;
  int listen_fd_ = -1;
  int port_ = 0;
  std::thread thread_;
  mutable std::mutex mu_;
  std::condition_variable cv_;
  bool stopped_ = false;
  std::vector<std::uint32_t> deadlines_;
};

ClientOptions BaseOptions(int port) {
  ClientOptions options;
  options.endpoint.port = port;
  options.retry.max_attempts = 1;
  options.retry.initial_backoff_ms = 5;
  options.retry.max_backoff_ms = 20;
  options.connect_timeout_ms = 1000;
  options.io_timeout_ms = 3000;
  options.backoff_seed = 0x7e57;
  return options;
}

TEST(ClientTest, DeadlinePropagationIsStrictlyDecreasing) {
  // Two retryable refusals, each after a 30 ms hold, then success.  The
  // hold guarantees measurable elapsed time between attempts, so the
  // propagated deadlines must strictly shrink.
  FakeServer server([](const QueryRequest&, int index) {
    FakeServer::Action action;
    if (index < 2) {
      action.kind = FakeServer::Action::kError;
      action.code = WireError::kOverloaded;
      action.delay_ms = 30;
    }
    return action;
  });

  ClientOptions options = BaseOptions(server.port());
  options.retry.max_attempts = 5;
  options.total_deadline_ms = 5000;
  QueryClient client(options);

  QueryOutcome outcome = client.Query("t", kAcceptAllProgram);
  ASSERT_TRUE(outcome.status.ok()) << outcome.status.ToString();
  EXPECT_TRUE(outcome.result.accepted);
  EXPECT_EQ(outcome.attempts, 3);

  std::vector<std::uint32_t> deadlines = server.deadlines();
  ASSERT_EQ(deadlines.size(), 3u);
  for (std::size_t i = 0; i < deadlines.size(); ++i) {
    EXPECT_GT(deadlines[i], 0u) << "attempt " << i;
    EXPECT_LE(deadlines[i], 5000u) << "attempt " << i;
    if (i > 0) {
      // Strictly less: budget minus elapsed, and elapsed grew by at
      // least the server's 30 ms hold plus the backoff.
      EXPECT_LT(deadlines[i], deadlines[i - 1])
          << "attempt " << i << " did not shrink its wire deadline";
      EXPECT_LE(deadlines[i] + 30, deadlines[i - 1])
          << "attempt " << i << " shrank less than the server hold";
    }
  }
  EXPECT_EQ(client.counters().attempts.load(), 3);
  EXPECT_EQ(client.counters().retries.load(), 2);
}

TEST(ClientTest, ExhaustedBudgetFailsClientSideWithoutAnAttempt) {
  // Every attempt burns ~60 ms of a 100 ms budget: the client must run
  // out of budget after about two attempts and fail with
  // kDeadlineExceeded *without* a final wasted exchange.
  FakeServer server([](const QueryRequest&, int) {
    FakeServer::Action action;
    action.kind = FakeServer::Action::kError;
    action.code = WireError::kOverloaded;
    action.delay_ms = 60;
    return action;
  });

  ClientOptions options = BaseOptions(server.port());
  options.retry.max_attempts = 50;
  options.total_deadline_ms = 100;
  QueryClient client(options);

  QueryOutcome outcome = client.Query("t", kAcceptAllProgram);
  EXPECT_FALSE(outcome.status.ok());
  EXPECT_EQ(outcome.status.code(), StatusCode::kDeadlineExceeded)
      << outcome.status.ToString();
  EXPECT_EQ(client.counters().deadline_exhausted.load(), 1);
  EXPECT_LT(client.counters().attempts.load(), 5);
  EXPECT_EQ(client.counters().attempts.load(), server.queries_seen());
}

TEST(ClientTest, TerminalWireErrorsDoNotRetry) {
  FakeServer server([](const QueryRequest&, int) {
    FakeServer::Action action;
    action.kind = FakeServer::Action::kError;
    action.code = WireError::kNotFound;
    return action;
  });

  ClientOptions options = BaseOptions(server.port());
  options.retry.max_attempts = 5;
  QueryClient client(options);

  QueryOutcome outcome = client.Query("nope", kAcceptAllProgram);
  EXPECT_FALSE(outcome.status.ok());
  EXPECT_EQ(outcome.status.code(), StatusCode::kNotFound);
  ASSERT_TRUE(outcome.has_wire_error);
  EXPECT_EQ(outcome.wire_error, WireError::kNotFound);
  EXPECT_EQ(outcome.attempts, 1);
  EXPECT_EQ(server.queries_seen(), 1);
  EXPECT_EQ(client.counters().retries.load(), 0);
}

TEST(ClientTest, RetryableWireErrorsRetryToTheAttemptBudget) {
  FakeServer server([](const QueryRequest&, int) {
    FakeServer::Action action;
    action.kind = FakeServer::Action::kError;
    action.code = WireError::kOverloaded;
    return action;
  });

  ClientOptions options = BaseOptions(server.port());
  options.retry.max_attempts = 3;
  QueryClient client(options);

  QueryOutcome outcome = client.Query("t", kAcceptAllProgram);
  EXPECT_FALSE(outcome.status.ok());
  ASSERT_TRUE(outcome.has_wire_error);
  EXPECT_EQ(outcome.wire_error, WireError::kOverloaded);
  EXPECT_EQ(outcome.attempts, 3);
  EXPECT_EQ(server.queries_seen(), 3);
  EXPECT_EQ(client.counters().retries.load(), 2);
}

TEST(ClientTest, LongRetryLaddersKeepTheBackoffWindowAtItsCap) {
  // Past the 63rd retry, initial_backoff_ms · 2^(k-1) no longer fits
  // in 64 bits.  The window must stay at max_backoff_ms all the way
  // (the sanitizer build aborts on an oversized shift), so 80 attempts
  // sleep at most 79 × 2 ms.
  FakeServer server([](const QueryRequest&, int) {
    FakeServer::Action action;
    action.kind = FakeServer::Action::kError;
    action.code = WireError::kOverloaded;
    return action;
  });

  ClientOptions options = BaseOptions(server.port());
  options.retry.max_attempts = 80;
  options.retry.initial_backoff_ms = 1;
  options.retry.max_backoff_ms = 2;
  QueryClient client(options);

  QueryOutcome outcome = client.Query("t", kAcceptAllProgram);
  ASSERT_TRUE(outcome.has_wire_error);
  EXPECT_EQ(outcome.wire_error, WireError::kOverloaded);
  EXPECT_EQ(outcome.attempts, 80);
  EXPECT_EQ(server.queries_seen(), 80);
  EXPECT_EQ(client.counters().retries.load(), 79);
}

TEST(ClientTest, TransportFailuresRetryOnAFreshConnection) {
  FakeServer server([](const QueryRequest&, int index) {
    FakeServer::Action action;
    if (index == 0) action.kind = FakeServer::Action::kClose;
    return action;
  });

  ClientOptions options = BaseOptions(server.port());
  options.retry.max_attempts = 3;
  QueryClient client(options);

  QueryOutcome outcome = client.Query("t", kAcceptAllProgram);
  ASSERT_TRUE(outcome.status.ok()) << outcome.status.ToString();
  EXPECT_EQ(outcome.attempts, 2);
  EXPECT_GE(client.counters().transport_errors.load(), 1);
  EXPECT_GE(client.counters().reconnects.load(), 2);
}

TEST(ClientTest, BreakerOpensHalfOpensAndRecloses) {
  // The fault is a switch the test flips: while on, every query is
  // refused kOverloaded (retryable, so it feeds the breaker).
  std::atomic<bool> failing{true};
  FakeServer server([&failing](const QueryRequest&, int) {
    FakeServer::Action action;
    if (failing.load()) {
      action.kind = FakeServer::Action::kError;
      action.code = WireError::kOverloaded;
    }
    return action;
  });

  ClientOptions options = BaseOptions(server.port());
  options.retry.max_attempts = 1;  // one attempt per call: each Query()
                                   // is one breaker observation
  options.breaker_threshold = 3;
  options.breaker_cooldown_ms = 100;
  QueryClient client(options);

  // Three consecutive retryable failures open the breaker.
  for (int i = 0; i < 3; ++i) {
    EXPECT_FALSE(client.Query("t", kAcceptAllProgram).status.ok());
  }
  EXPECT_EQ(client.breaker_state(), QueryClient::BreakerState::kOpen);
  EXPECT_EQ(client.counters().breaker_opened.load(), 1);

  // While open, calls are shed locally: no socket, no server request.
  int seen_before_shed = server.queries_seen();
  QueryOutcome shed = client.Query("t", kAcceptAllProgram);
  EXPECT_FALSE(shed.status.ok());
  EXPECT_EQ(shed.status.code(), StatusCode::kResourceExhausted);
  EXPECT_EQ(shed.attempts, 0);
  EXPECT_EQ(server.queries_seen(), seen_before_shed);
  EXPECT_EQ(client.counters().breaker_shed.load(), 1);

  // After the cooldown exactly one half-open probe goes through; the
  // fault is still on, so it fails and the breaker re-opens.
  std::this_thread::sleep_for(std::chrono::milliseconds(150));
  EXPECT_FALSE(client.Query("t", kAcceptAllProgram).status.ok());
  EXPECT_EQ(client.counters().breaker_probes.load(), 1);
  EXPECT_EQ(client.counters().breaker_opened.load(), 2);
  EXPECT_EQ(client.breaker_state(), QueryClient::BreakerState::kOpen);

  // Clear the fault; the next probe succeeds and closes the breaker.
  failing.store(false);
  std::this_thread::sleep_for(std::chrono::milliseconds(150));
  QueryOutcome recovered = client.Query("t", kAcceptAllProgram);
  EXPECT_TRUE(recovered.status.ok()) << recovered.status.ToString();
  EXPECT_EQ(client.counters().breaker_probes.load(), 2);
  EXPECT_EQ(client.counters().breaker_closed.load(), 1);
  EXPECT_EQ(client.breaker_state(), QueryClient::BreakerState::kClosed);

  // Closed again: ordinary traffic flows.
  EXPECT_TRUE(client.Query("t", kAcceptAllProgram).status.ok());

  // Exact reconciliation: every client attempt reached the server, and
  // exactly one call was shed without an attempt.
  EXPECT_EQ(client.counters().attempts.load(), server.queries_seen());
  EXPECT_EQ(client.counters().breaker_shed.load(), 1);
}

TEST(ClientTest, TerminalErrorsDoNotFeedTheBreaker) {
  FakeServer server([](const QueryRequest&, int) {
    FakeServer::Action action;
    action.kind = FakeServer::Action::kError;
    action.code = WireError::kNotFound;  // semantic verdict, not health
    return action;
  });

  ClientOptions options = BaseOptions(server.port());
  options.breaker_threshold = 2;
  QueryClient client(options);
  for (int i = 0; i < 5; ++i) {
    EXPECT_FALSE(client.Query("nope", kAcceptAllProgram).status.ok());
  }
  EXPECT_EQ(client.breaker_state(), QueryClient::BreakerState::kClosed);
  EXPECT_EQ(client.counters().breaker_opened.load(), 0);
}

TEST(ClientTest, TerminalVerdictDuringHalfOpenClosesTheBreaker) {
  // Regression: a half-open probe that draws a *terminal* wire error
  // (kNotFound — the server answered, so the endpoint is healthy) must
  // close the breaker.  Recording neither success nor failure used to
  // leave half_open_probe_inflight_ latched and the breaker shedding
  // every subsequent call forever.
  std::atomic<bool> failing{true};
  FakeServer server([&failing](const QueryRequest&, int) {
    FakeServer::Action action;
    action.kind = FakeServer::Action::kError;
    action.code =
        failing.load() ? WireError::kOverloaded : WireError::kNotFound;
    return action;
  });

  ClientOptions options = BaseOptions(server.port());
  options.retry.max_attempts = 1;
  options.breaker_threshold = 2;
  options.breaker_cooldown_ms = 100;
  QueryClient client(options);

  for (int i = 0; i < 2; ++i) {
    EXPECT_FALSE(client.Query("t", kAcceptAllProgram).status.ok());
  }
  EXPECT_EQ(client.breaker_state(), QueryClient::BreakerState::kOpen);

  failing.store(false);
  std::this_thread::sleep_for(std::chrono::milliseconds(150));
  QueryOutcome probe = client.Query("nope", kAcceptAllProgram);
  EXPECT_FALSE(probe.status.ok());
  EXPECT_EQ(probe.status.code(), StatusCode::kNotFound);
  EXPECT_EQ(client.breaker_state(), QueryClient::BreakerState::kClosed);
  EXPECT_EQ(client.counters().breaker_probes.load(), 1);
  EXPECT_EQ(client.counters().breaker_closed.load(), 1);

  // Closed for real: later calls reach the server instead of the shed
  // path.
  int seen = server.queries_seen();
  EXPECT_FALSE(client.Query("nope", kAcceptAllProgram).status.ok());
  EXPECT_EQ(server.queries_seen(), seen + 1);
  EXPECT_EQ(client.counters().breaker_shed.load(), 0);
}

TEST(ClientTest, ExchangeWaitCoversTheWireDeadline) {
  // Regression: the server legitimately computes for 600 ms, well past
  // the 100 ms io floor; the client must size its socket wait from the
  // attempt's wire deadline instead of aborting the exchange at
  // io_timeout_ms and miscounting it as a transport failure.
  FakeServer server([](const QueryRequest&, int) {
    FakeServer::Action action;
    action.delay_ms = 600;
    return action;
  });

  ClientOptions options = BaseOptions(server.port());
  options.io_timeout_ms = 100;
  options.request_deadline_ms = 5000;
  QueryClient client(options);

  QueryOutcome outcome = client.Query("t", kAcceptAllProgram);
  ASSERT_TRUE(outcome.status.ok()) << outcome.status.ToString();
  EXPECT_EQ(outcome.attempts, 1);
  EXPECT_EQ(client.counters().transport_errors.load(), 0);
}

TEST(ClientTest, StatusFromWireErrorMapsTheFullVocabulary) {
  EXPECT_EQ(StatusFromWireError(WireError::kOverloaded, "m").code(),
            StatusCode::kResourceExhausted);
  EXPECT_EQ(StatusFromWireError(WireError::kDraining, "m").code(),
            StatusCode::kResourceExhausted);
  EXPECT_EQ(StatusFromWireError(WireError::kInvalidRequest, "m").code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(StatusFromWireError(WireError::kNotFound, "m").code(),
            StatusCode::kNotFound);
  EXPECT_EQ(StatusFromWireError(WireError::kDeadlineExceeded, "m").code(),
            StatusCode::kDeadlineExceeded);
  EXPECT_EQ(StatusFromWireError(WireError::kResourceExhausted, "m").code(),
            StatusCode::kResourceExhausted);
  EXPECT_EQ(StatusFromWireError(WireError::kCancelled, "m").code(),
            StatusCode::kCancelled);
  EXPECT_EQ(StatusFromWireError(WireError::kRejectedProgram, "m").code(),
            StatusCode::kFailedPrecondition);
  EXPECT_EQ(StatusFromWireError(WireError::kQuarantined, "m").code(),
            StatusCode::kFailedPrecondition);
  EXPECT_EQ(StatusFromWireError(WireError::kInternal, "m").code(),
            StatusCode::kInternal);
}

TEST(ClientTest, PingAndProbesRoundTrip) {
  FakeServer server([](const QueryRequest&, int) {
    return FakeServer::Action{};
  });
  QueryClient client(BaseOptions(server.port()));
  EXPECT_TRUE(client.Connect().ok());
  EXPECT_TRUE(client.Ping().ok());
}

}  // namespace
}  // namespace treewalk
