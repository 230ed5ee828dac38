#ifndef TREEWALK_CLIENT_CLIENT_H_
#define TREEWALK_CLIENT_CLIENT_H_

/// Resilient client library for the `twq serve` wire protocol
/// (docs/SERVER.md, "The resilient client").  The daemon's crash-only
/// story only closes end-to-end if the *client* survives the crash:
/// a supervisor SIGKILL/restart cycle looks like a burst of connection
/// resets and refusals, and a raw socket loop turns each into a
/// user-visible failure.  QueryClient turns them into a bounded retry:
///
///   backoff     jittered exponential retries (ClientRetry); full
///               jitter, so a restarted daemon is not greeted by a
///               synchronized thundering herd
///   deadline    one end-to-end budget (total_deadline_ms) propagated
///               per attempt: the wire deadline_ms each attempt carries
///               is the budget *minus elapsed time*, so the server-side
///               governor never runs past what the client will wait for
///
/// Both bounds are per query: the client keeps no memory of earlier
/// queries' failures.
///
/// One QueryClient owns one connection and is NOT thread-safe: a fleet
/// uses one instance per thread.
///
/// Retryability: transport errors and the transient wire errors
/// kOverloaded / kDraining / kCancelled / kInternal retry; semantic
/// verdicts (kInvalidRequest, kNotFound, kRejectedProgram) and spent
/// budgets (kDeadlineExceeded, kResourceExhausted) are terminal.

#include <atomic>
#include <cstdint>
#include <string>

#include "src/common/result.h"
#include "src/server/frame.h"

namespace treewalk {

/// One host:port target.
struct Endpoint {
  std::string host = "127.0.0.1";
  int port = 0;
};

/// Client-side retries.  A retryable failure is retried after a
/// full-jitter sleep: retry k (1-based) draws uniformly from
/// [0, min(initial_backoff_ms · 2^(k-1), max_backoff_ms)], clamped to
/// what is left of total_deadline_ms.  Unlike the batch engine, which
/// re-runs at once, the client waits: the failures it retries
/// (refused connects, kOverloaded, kDraining) pass only with time.
struct ClientRetry {
  /// Total attempts (1 = no retries).
  int max_attempts = 1;
  /// Upper bound of the first retry's jitter window; doubles each
  /// further retry up to `max_backoff_ms`.  0 disables backoff sleeps.
  std::int64_t initial_backoff_ms = 1;
  /// Cap on the exponential window.
  std::int64_t max_backoff_ms = 1000;
};

struct ClientOptions {
  Endpoint endpoint;
  ClientRetry retry;
  /// End-to-end budget across all attempts and backoffs; each attempt's
  /// wire deadline is what remains of it.  0 = no budget
  /// (attempts carry request_deadline_ms instead).
  std::int64_t total_deadline_ms = 0;
  /// Per-attempt server deadline when total_deadline_ms == 0
  /// (0 = server default).
  std::int64_t request_deadline_ms = 0;
  std::int64_t connect_timeout_ms = 1000;
  /// Floor on the per-exchange wait (write + full response read).  Each
  /// exchange waits max(io_timeout_ms, attempt wire deadline + slack),
  /// so a server legitimately computing up to its propagated deadline
  /// is never aborted client-side; under a total_deadline_ms budget the
  /// wait is the remaining budget plus slack instead.
  std::int64_t io_timeout_ms = 5000;
  /// Seeds backoff jitter (0 = derived from the address of the client).
  std::uint64_t backoff_seed = 0;
};

/// Monotonic client-side counters; exact by construction (each event
/// increments exactly one counter at the point it happens), so tests
/// can reconcile them against server books.
struct ClientCounters {
  std::atomic<std::int64_t> attempts{0};         ///< exchanges launched
  std::atomic<std::int64_t> retries{0};          ///< attempts after the first
  std::atomic<std::int64_t> reconnects{0};       ///< fresh primary connects
  std::atomic<std::int64_t> transport_errors{0}; ///< connect/read/write failures
  std::atomic<std::int64_t> deadline_exhausted{0}; ///< budget died client-side
};

/// Everything one resilient query produced.  `status.ok()` means
/// `result` is a served verdict (accept or reject); otherwise
/// `wire_error` (when `has_wire_error`) is the server's last typed
/// refusal, and transport-level failures leave has_wire_error false.
struct QueryOutcome {
  Status status = Status::Ok();
  QueryResultMsg result;
  bool has_wire_error = false;
  WireError wire_error = WireError::kInternal;
  int attempts = 0;
};

/// Maps a typed server refusal onto the engine's Status vocabulary
/// (the inverse direction of WireErrorFromStatus, for client callers
/// that speak Status).
Status StatusFromWireError(WireError code, const std::string& message);

class QueryClient {
 public:
  explicit QueryClient(ClientOptions options);
  ~QueryClient();

  QueryClient(const QueryClient&) = delete;
  QueryClient& operator=(const QueryClient&) = delete;

  /// Eagerly establishes the primary connection (Query() and the
  /// probes connect lazily; a held probe wants the connection to exist
  /// *before* the server starts draining, when new accepts are
  /// refused).
  Status Connect();

  /// One resilient query: retries and deadline propagation, per the
  /// options.  Every attempt goes through the primary connection on
  /// the calling thread.
  QueryOutcome Query(const std::string& tree_name,
                     const std::string& program_text);

  /// Single-attempt probes and metadata fetches on the primary
  /// connection (one silent reconnect if it had gone stale).  Probes
  /// are deliberately un-retried: a health check that retries until it
  /// succeeds measures the retry budget, not the server.
  Result<bool> Health();
  Result<bool> Ready();
  Result<StatsMap> Stats();
  Status Ping();

  const ClientCounters& counters() const { return counters_; }
  const ClientOptions& options() const { return options_; }

 private:
  struct ExchangeResult {
    bool transport_ok = false;
    MessageType type = MessageType::kPong;
    std::string body;
  };

  /// Request/response on the persistent primary connection,
  /// (re)connecting as needed; closes it on transport failure.
  ExchangeResult ExchangePrimary(const std::string& request,
                                 std::int64_t wait_ms);

  ClientOptions options_;
  ClientCounters counters_;
  int fd_ = -1;
  std::uint64_t rng_state_;
};

}  // namespace treewalk

#endif  // TREEWALK_CLIENT_CLIENT_H_
