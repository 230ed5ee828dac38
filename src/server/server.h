#ifndef TREEWALK_SERVER_SERVER_H_
#define TREEWALK_SERVER_SERVER_H_

/// `twq serve` (docs/SERVER.md): a resident query daemon over a
/// preloaded corpus of trees.  The design goal is *overload safety*,
/// not raw throughput — every resource a client can consume is bounded
/// before it is consumed:
///
///   frames      length-validated before allocation (src/server/frame.h)
///   queue       at most ServerOptions::max_queue requests in flight;
///               excess is shed with a typed kOverloaded, never queued
///   execution   an admitted query runs on the connection thread that
///               read it, once one of num_workers slots is free
///   memory      each admitted request reserves its per-request budget
///               against the server-wide budget; reservation failure is
///               kOverloaded (admission), budget trips inside the run
///               are kResourceExhausted (execution)
///   time        every request runs under a deadline (client budget
///               clamped to max_deadline_ms, else default_deadline_ms)
///   retries     none: a query runs one attempt.  The client owns
///               end-to-end retries (src/client); a retry budget
///               multiplied across a full queue would defeat the
///               deadline math
///   sockets     at most max_connections clients; slow readers/writers
///               are reaped after io_timeout_ms
///
/// Shutdown is a first-class path: BeginDrain() stops accepting,
/// in-flight requests get drain_deadline_ms to finish, stragglers —
/// running or still waiting for a slot — are cooperatively cancelled
/// (kCancelled on the wire, counted `drained`), and AwaitTermination()
/// returns only when every thread is joined.
/// The accounting invariant — checked by tests/serve_chaos_test.cc down
/// to the last request — is
///
///   admitted == served_ok + served_error + drained
///
/// and every shed request is counted by reason.  Failpoint sites
/// server/{accept,read,write,dispatch} inject faults at each boundary.

#include <atomic>
#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <semaphore>
#include <string>
#include <thread>

#include "src/common/result.h"
#include "src/engine/engine.h"
#include "src/engine/input_cache.h"
#include "src/server/frame.h"

namespace treewalk {

struct ServerOptions {
  /// Listen address.  Loopback by default: the daemon speaks an
  /// unauthenticated protocol and is meant to sit behind a local
  /// front end.
  std::string host = "127.0.0.1";
  /// TCP port; 0 binds an ephemeral port (read it back with port()).
  int port = 0;
  /// Execution slots: at most this many admitted queries run at once,
  /// each on the connection thread that read it.
  int num_workers = 4;
  /// Admission bound: maximum requests admitted but not yet answered
  /// (waiting for a slot + running).  The queue can never grow beyond
  /// it.
  int max_queue = 64;
  /// Maximum simultaneously open client connections; excess connections
  /// are sent a best-effort kOverloaded and closed at accept.
  int max_connections = 64;
  /// Server-wide memory high-water for admitted requests: each
  /// admission reserves request_memory_budget_bytes against it.
  /// 0 = unlimited.
  std::int64_t memory_budget_bytes = 0;
  /// Memory budget each query runs under (0 = unlimited).
  std::int64_t request_memory_budget_bytes = 64ll << 20;
  /// Deadline for requests that do not carry a client budget.
  std::int64_t default_deadline_ms = 1000;
  /// Clamp on client-supplied deadline budgets.
  std::int64_t max_deadline_ms = 10000;
  /// How long BeginDrain() lets in-flight requests finish before
  /// cancelling them cooperatively.
  std::int64_t drain_deadline_ms = 2000;
  /// Slow-client guard: a connection that keeps a frame read or write
  /// blocked longer than this is reaped.
  std::int64_t io_timeout_ms = 5000;
};

/// Monotonic counters behind the `stats` wire request.  All atomics:
/// read coherently enough for the reconciliation invariant because
/// every counter is incremented exactly once per request, before the
/// response that makes the client's observation possible.
struct ServerCounters {
  std::atomic<std::int64_t> connections_accepted{0};
  std::atomic<std::int64_t> connections_rejected{0};
  std::atomic<std::int64_t> requests_admitted{0};
  std::atomic<std::int64_t> served_ok{0};
  std::atomic<std::int64_t> served_error{0};
  std::atomic<std::int64_t> drained{0};
  std::atomic<std::int64_t> shed_queue{0};
  std::atomic<std::int64_t> shed_memory{0};
  std::atomic<std::int64_t> shed_draining{0};
  std::atomic<std::int64_t> protocol_errors{0};
  std::atomic<std::int64_t> slow_clients_reaped{0};
  std::atomic<std::int64_t> pings{0};
  std::atomic<std::int64_t> stats_requests{0};
  std::atomic<std::int64_t> metrics_requests{0};
  std::atomic<std::int64_t> health_probes{0};
  std::atomic<std::int64_t> ready_probes{0};
  /// Completed corpus generation swaps (SwapCorpus calls).
  std::atomic<std::int64_t> reloads{0};
  /// Selector picks accumulated from served queries' RunStats: one per
  /// distinct selector per run, interval when the compiler accepted it,
  /// reference when it declined (docs/PLANNER.md).
  std::atomic<std::int64_t> planner_picks_reference{0};
  std::atomic<std::int64_t> planner_picks_interval{0};
};

/// The daemon.  Lifecycle: construct → Start() → (serve) →
/// BeginDrain() → AwaitTermination().  All public methods are
/// thread-safe; BeginDrain() may be called from a signal-polling
/// driver loop at any time and is idempotent.
class QueryServer {
 public:
  /// `corpus` is the startup generation; queries resolve tree names
  /// through Lookup() only — every generation is preloaded before it is
  /// handed over and only read after, so the hot path never does I/O.
  /// SwapCorpus() replaces it atomically at reload.
  QueryServer(ServerOptions options,
              std::shared_ptr<const ResidentTreeCache> corpus);
  ~QueryServer();

  QueryServer(const QueryServer&) = delete;
  QueryServer& operator=(const QueryServer&) = delete;

  /// Binds, listens, opens the num_workers execution slots, and spawns
  /// the accept loop.
  Status Start();

  /// The bound port (after Start(); meaningful with options.port == 0).
  int port() const { return port_; }

  /// Stops accepting, lets in-flight work finish within
  /// drain_deadline_ms, then cancels stragglers.  Idempotent.
  void BeginDrain();

  /// Blocks until every thread is joined.  Requires BeginDrain() to
  /// have been called (or calls it).  Safe to call once.
  void AwaitTermination();

  bool draining() const { return draining_.load(std::memory_order_acquire); }

  /// Readiness as answered by the kReady probe: started, not draining,
  /// and holding a corpus generation with at least one tree.
  bool ready() const;

  /// The corpus generation new queries will pin (never null after
  /// construction).  In-flight queries may still be running on an
  /// earlier generation they pinned at dispatch.
  std::shared_ptr<const ResidentTreeCache> corpus() const;

  /// Atomic live-reload swap: `next` becomes the generation every
  /// query dispatched from now on pins; queries already running keep
  /// their pinned generation until they answer, at which point the old
  /// cache (and its memory accounting) is released with the last pin.
  /// `build_ms` is the off-thread build latency, recorded in
  /// treewalk_server_reload_latency_ms.  Null `next` is ignored (a
  /// failed reload keeps the old generation serving).
  void SwapCorpus(std::shared_ptr<const ResidentTreeCache> next,
                  double build_ms);

  const ServerCounters& counters() const { return counters_; }

  /// The `stats` response body: server counters, gauges, and corpus
  /// cache occupancy, keys catalogued in docs/SERVER.md.
  StatsMap BuildStats() const;

 private:
  struct Connection {
    int fd = -1;
    std::thread thread;
    std::atomic<bool> done{false};
  };

  void AcceptLoop();
  void ConnectionLoop(Connection* conn);

  /// Handles one well-framed request on the connection thread; returns
  /// the complete response frame.
  std::string HandleFrame(const Frame& frame);
  /// Admission control, then execution on the calling connection thread
  /// under an execution slot; returns the response.
  std::string DispatchQuery(const QueryRequest& query);
  /// Executes one admitted query (the caller holds a slot).
  std::string ExecuteQuery(const QueryRequest& query);

  /// Reaps finished connection threads (accept loop housekeeping).
  void JoinFinishedConnections();

  ServerOptions options_;
  mutable std::mutex corpus_mu_;
  std::shared_ptr<const ResidentTreeCache> corpus_;  // guarded by corpus_mu_
  ServerCounters counters_;

  int listen_fd_ = -1;
  int port_ = 0;
  /// eventfd in the accept loop's poll set; BeginDrain() writes it so
  /// the loop stops at once instead of at its next poll timeout.
  int wake_fd_ = -1;

  std::atomic<bool> draining_{false};
  std::atomic<bool> cancel_{false};        // polled by running queries
  std::atomic<int> open_connections_{0};
  std::atomic<int> inflight_{0};           // admitted, not yet answered
  std::atomic<std::int64_t> reserved_bytes_{0};
  std::atomic<std::uint64_t> next_request_id_{1};

  /// Execution slots, released num_workers times by Start().
  std::counting_semaphore<> slots_{0};

  std::thread accept_thread_;

  std::mutex conns_mu_;
  std::list<std::unique_ptr<Connection>> conns_;

  mutable std::mutex lifecycle_mu_;
  bool started_ = false;
  bool terminated_ = false;
};

}  // namespace treewalk

#endif  // TREEWALK_SERVER_SERVER_H_
