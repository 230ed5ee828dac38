#include "src/server/server.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstring>
#include <utility>

#include "src/automata/text_format.h"
#include "src/common/crc32c.h"
#include "src/common/failpoint.h"
#include "src/common/metrics.h"

namespace treewalk {

namespace {

using Clock = std::chrono::steady_clock;

/// Server instrument family (docs/OBSERVABILITY.md).  Mirrors
/// ServerCounters 1:1 — the counters are the source of truth for the
/// stats wire response, the registry carries the same values into
/// Prometheus exposition.
struct ServerMetrics {
  Counter* connections_accepted;
  Counter* connections_rejected;
  Counter* admitted;
  Counter* served_ok;
  Counter* served_error;
  Counter* drained;
  Counter* shed_queue;
  Counter* shed_memory;
  Counter* shed_draining;
  Counter* protocol_errors;
  Counter* slow_reaped;
  Counter* reloads;
  Counter* quarantined;
  Counter* health_probes;
  Counter* ready_probes;
  Gauge* inflight;
  Gauge* open_connections;
  Gauge* reserved_bytes;
  Gauge* corpus_generation;
  Histogram* request_latency_ms;
  Histogram* reload_latency_ms;

  static ServerMetrics& Get() {
    static ServerMetrics* metrics = [] {
      auto* m = new ServerMetrics;
      MetricsRegistry& r = MetricsRegistry::Global();
      const char* conns_help = "Client connections, by accept outcome";
      m->connections_accepted = r.FindOrCreateCounter(
          "treewalk_server_connections_total", conns_help,
          {{"status", "accepted"}});
      m->connections_rejected = r.FindOrCreateCounter(
          "treewalk_server_connections_total", conns_help,
          {{"status", "rejected"}});
      m->admitted = r.FindOrCreateCounter(
          "treewalk_server_admitted_total",
          "Requests past admission control (== ok + error + drained)");
      const char* req_help = "Admitted requests finished, by outcome";
      m->served_ok = r.FindOrCreateCounter(
          "treewalk_server_requests_total", req_help, {{"outcome", "ok"}});
      m->served_error = r.FindOrCreateCounter(
          "treewalk_server_requests_total", req_help, {{"outcome", "error"}});
      m->drained = r.FindOrCreateCounter(
          "treewalk_server_requests_total", req_help, {{"outcome", "drained"}});
      const char* shed_help = "Requests shed before admission, by reason";
      m->shed_queue = r.FindOrCreateCounter(
          "treewalk_server_shed_total", shed_help, {{"reason", "queue"}});
      m->shed_memory = r.FindOrCreateCounter(
          "treewalk_server_shed_total", shed_help, {{"reason", "memory"}});
      m->shed_draining = r.FindOrCreateCounter(
          "treewalk_server_shed_total", shed_help, {{"reason", "draining"}});
      m->protocol_errors = r.FindOrCreateCounter(
          "treewalk_server_protocol_errors_total",
          "Malformed frames (bad length prefix, unknown type, bad body)");
      m->slow_reaped = r.FindOrCreateCounter(
          "treewalk_server_slow_clients_reaped_total",
          "Connections closed because a frame read/write exceeded the "
          "I/O timeout");
      m->reloads = r.FindOrCreateCounter(
          "treewalk_server_reloads_total",
          "Corpus generation swaps completed (in-flight queries finish "
          "on the generation they pinned)");
      m->quarantined = r.FindOrCreateCounter(
          "treewalk_server_quarantined_total",
          "Queries shed with kQuarantined because their formula x tree "
          "pair tripped the governor max-consecutive-failures times");
      const char* probe_help = "Health/readiness probe frames answered";
      m->health_probes = r.FindOrCreateCounter(
          "treewalk_server_probes_total", probe_help,
          {{"probe", "health"}});
      m->ready_probes = r.FindOrCreateCounter(
          "treewalk_server_probes_total", probe_help,
          {{"probe", "ready"}});
      m->inflight = r.FindOrCreateGauge(
          "treewalk_server_inflight_requests",
          "Requests admitted but not yet answered (bounded by max_queue)");
      m->open_connections = r.FindOrCreateGauge(
          "treewalk_server_open_connections",
          "Currently open client connections (bounded by max_connections)");
      m->reserved_bytes = r.FindOrCreateGauge(
          "treewalk_server_reserved_bytes",
          "Memory reserved by admitted requests against the server budget");
      m->corpus_generation = r.FindOrCreateGauge(
          "treewalk_server_corpus_generation",
          "Generation number of the corpus serving new queries "
          "(0 = startup corpus, +1 per completed reload)");
      m->request_latency_ms = r.FindOrCreateHistogram(
          "treewalk_server_request_latency_ms",
          "Admission to response-built latency of admitted requests",
          LatencyBucketsMs());
      m->reload_latency_ms = r.FindOrCreateHistogram(
          "treewalk_server_reload_latency_ms",
          "Off-thread corpus rebuild latency per SIGHUP reload "
          "(the swap itself is one pointer move)",
          LatencyBucketsMs());
      return m;
    }();
    return *metrics;
  }
};

/// Deadline for one socket read or write `ms` from now.
Clock::time_point After(std::int64_t ms) {
  return Clock::now() + std::chrono::milliseconds(ms);
}

Status CheckFailpoint(const char* site) {
  if (!FailpointRegistry::armed()) return Status::Ok();
  return FailpointRegistry::Global().Check(site);
}

std::string ErrorFrame(WireError code, std::string message) {
  return EncodeFrame(MessageType::kError,
                     EncodeError({code, std::move(message)}));
}

double MillisSince(Clock::time_point start) {
  return std::chrono::duration_cast<
             std::chrono::duration<double, std::milli>>(Clock::now() - start)
      .count();
}

}  // namespace

QueryServer::QueryServer(ServerOptions options,
                         std::shared_ptr<const ResidentTreeCache> corpus)
    : options_(std::move(options)), corpus_(std::move(corpus)) {
  ServerMetrics::Get().corpus_generation->Set(
      corpus_ ? static_cast<std::int64_t>(corpus_->generation()) : 0);
}

QueryServer::QueryServer(ServerOptions options,
                         const ResidentTreeCache* corpus)
    : QueryServer(std::move(options),
                  std::shared_ptr<const ResidentTreeCache>(
                      corpus, [](const ResidentTreeCache*) {})) {}

QueryServer::~QueryServer() {
  bool needs_teardown;
  {
    std::lock_guard<std::mutex> lock(lifecycle_mu_);
    needs_teardown = started_ && !terminated_;
  }
  if (needs_teardown) {
    BeginDrain();
    AwaitTermination();
  }
}

Status QueryServer::Start() {
  {
    std::lock_guard<std::mutex> lock(lifecycle_mu_);
    if (started_) return FailedPrecondition("server already started");
    started_ = true;
  }
  if (options_.num_workers < 1) {
    return InvalidArgument("num_workers must be >= 1, got " +
                           std::to_string(options_.num_workers));
  }
  if (options_.max_queue < 1) {
    return InvalidArgument("max_queue must be >= 1, got " +
                           std::to_string(options_.max_queue));
  }
  listen_fd_ = socket(AF_INET, SOCK_STREAM, 0);
  if (listen_fd_ < 0) {
    return Internal(std::string("socket: ") + std::strerror(errno));
  }
  int one = 1;
  setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  struct sockaddr_in addr = {};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<std::uint16_t>(options_.port));
  if (inet_pton(AF_INET, options_.host.c_str(), &addr.sin_addr) != 1) {
    close(listen_fd_);
    listen_fd_ = -1;
    return InvalidArgument("unparsable listen address: " + options_.host);
  }
  if (bind(listen_fd_, reinterpret_cast<struct sockaddr*>(&addr),
           sizeof(addr)) != 0) {
    Status status = Internal(std::string("bind ") + options_.host + ":" +
                             std::to_string(options_.port) + ": " +
                             std::strerror(errno));
    close(listen_fd_);
    listen_fd_ = -1;
    return status;
  }
  // Bounded accept backlog: the kernel queue is part of the admission
  // story — max_connections of it is all we will ever drain.
  if (listen(listen_fd_, options_.max_connections) != 0) {
    Status status = Internal(std::string("listen: ") + std::strerror(errno));
    close(listen_fd_);
    listen_fd_ = -1;
    return status;
  }
  socklen_t addr_len = sizeof(addr);
  getsockname(listen_fd_, reinterpret_cast<struct sockaddr*>(&addr),
              &addr_len);
  port_ = ntohs(addr.sin_port);

  workers_.reserve(static_cast<std::size_t>(options_.num_workers));
  for (int i = 0; i < options_.num_workers; ++i) {
    workers_.emplace_back(&QueryServer::WorkerLoop, this);
  }
  accept_thread_ = std::thread(&QueryServer::AcceptLoop, this);
  return Status::Ok();
}

void QueryServer::AcceptLoop() {
  ServerMetrics& metrics = ServerMetrics::Get();
  while (!draining_.load(std::memory_order_acquire)) {
    struct pollfd pfd = {listen_fd_, POLLIN, 0};
    // Short poll so a drain stops the accept loop within ~50 ms even
    // with no connection attempts arriving.
    int pr = poll(&pfd, 1, 50);
    JoinFinishedConnections();
    if (pr <= 0 || (pfd.revents & POLLIN) == 0) continue;
    int fd = accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) continue;
    Status injected = CheckFailpoint("server/accept");
    bool at_capacity =
        open_connections_.load(std::memory_order_relaxed) >=
        options_.max_connections;
    if (!injected.ok() || at_capacity ||
        draining_.load(std::memory_order_acquire)) {
      // Best-effort typed rejection before the close: a well-behaved
      // client distinguishes "shed, retry elsewhere" from a crash.
      std::string frame =
          draining_.load(std::memory_order_acquire)
              ? ErrorFrame(WireError::kDraining, "server is draining")
              : ErrorFrame(WireError::kOverloaded,
                           at_capacity ? "connection limit reached"
                                       : injected.message());
      WriteFull(fd, frame.data(), frame.size(), After(100));
      close(fd);
      counters_.connections_rejected.fetch_add(1, std::memory_order_relaxed);
      metrics.connections_rejected->Increment();
      continue;
    }
    counters_.connections_accepted.fetch_add(1, std::memory_order_relaxed);
    metrics.connections_accepted->Increment();
    metrics.open_connections->Set(
        open_connections_.fetch_add(1, std::memory_order_relaxed) + 1);
    auto conn = std::make_unique<Connection>();
    conn->fd = fd;
    Connection* raw = conn.get();
    {
      std::lock_guard<std::mutex> lock(conns_mu_);
      conns_.push_back(std::move(conn));
    }
    raw->thread = std::thread(&QueryServer::ConnectionLoop, this, raw);
  }
}

void QueryServer::ConnectionLoop(Connection* conn) {
  ServerMetrics& metrics = ServerMetrics::Get();
  const int fd = conn->fd;
  while (true) {
    unsigned char prefix[4];
    IoStatus rs =
        ReadFull(fd, prefix, sizeof(prefix), After(options_.io_timeout_ms));
    if (rs == IoStatus::kTimeout) {
      counters_.slow_clients_reaped.fetch_add(1, std::memory_order_relaxed);
      metrics.slow_reaped->Increment();
      break;
    }
    if (rs != IoStatus::kOk) break;  // clean EOF or reset between frames
    Status injected = CheckFailpoint("server/read");
    if (!injected.ok()) {
      std::string frame = ErrorFrame(WireErrorFromStatus(injected.code()),
                                     injected.message());
      WriteFull(fd, frame.data(), frame.size(), After(options_.io_timeout_ms));
      break;
    }
    Result<std::uint32_t> len = DecodeFrameLength(prefix);
    if (!len.ok()) {
      // The stream position is unrecoverable after a bad prefix: answer
      // typed, then close.  Nothing was allocated for the bogus length.
      counters_.protocol_errors.fetch_add(1, std::memory_order_relaxed);
      metrics.protocol_errors->Increment();
      std::string frame =
          ErrorFrame(WireError::kInvalidRequest, len.status().message());
      WriteFull(fd, frame.data(), frame.size(), After(options_.io_timeout_ms));
      break;
    }
    std::string payload(len.value(), '\0');
    rs = ReadFull(fd, reinterpret_cast<unsigned char*>(payload.data()),
                  payload.size(), After(options_.io_timeout_ms));
    if (rs == IoStatus::kTimeout) {
      counters_.slow_clients_reaped.fetch_add(1, std::memory_order_relaxed);
      metrics.slow_reaped->Increment();
      break;
    }
    if (rs != IoStatus::kOk) {
      // Mid-frame disconnect: a protocol violation, not a clean close.
      counters_.protocol_errors.fetch_add(1, std::memory_order_relaxed);
      metrics.protocol_errors->Increment();
      break;
    }
    Result<Frame> frame = DecodeFramePayload(payload);
    std::string response;
    if (!frame.ok()) {
      counters_.protocol_errors.fetch_add(1, std::memory_order_relaxed);
      metrics.protocol_errors->Increment();
      response =
          ErrorFrame(WireError::kInvalidRequest, frame.status().message());
    } else {
      response = HandleFrame(frame.value());
    }
    injected = CheckFailpoint("server/write");
    if (!injected.ok()) break;  // simulated dead client: drop + close
    IoStatus ws = WriteFull(fd, response.data(), response.size(),
                            After(options_.io_timeout_ms));
    if (ws == IoStatus::kTimeout) {
      counters_.slow_clients_reaped.fetch_add(1, std::memory_order_relaxed);
      metrics.slow_reaped->Increment();
      break;
    }
    if (ws != IoStatus::kOk) break;
  }
  close(fd);
  metrics.open_connections->Set(
      open_connections_.fetch_sub(1, std::memory_order_relaxed) - 1);
  conn->done.store(true, std::memory_order_release);
}

std::string QueryServer::HandleFrame(const Frame& frame) {
  ServerMetrics& metrics = ServerMetrics::Get();
  switch (frame.type) {
    case MessageType::kPing:
      counters_.pings.fetch_add(1, std::memory_order_relaxed);
      return EncodeFrame(MessageType::kPong, "");
    case MessageType::kHealth:
      // Liveness: answered whenever a connection thread is running —
      // including all through a drain.  A supervisor keys restarts off
      // this; only a dead or wedged process fails it.
      counters_.health_probes.fetch_add(1, std::memory_order_relaxed);
      metrics.health_probes->Increment();
      return EncodeFrame(MessageType::kHealthResult,
                         EncodeProbeResult({true}));
    case MessageType::kReady:
      // Readiness: accepting + corpus loaded + not draining.  Flips
      // false the instant BeginDrain() latches, long before the
      // process exits — a balancer stops routing while the drain is
      // still answering in-flight work.
      counters_.ready_probes.fetch_add(1, std::memory_order_relaxed);
      metrics.ready_probes->Increment();
      return EncodeFrame(MessageType::kReadyResult,
                         EncodeProbeResult({ready()}));
    case MessageType::kStats:
      counters_.stats_requests.fetch_add(1, std::memory_order_relaxed);
      return EncodeFrame(MessageType::kStatsResult, EncodeStats(BuildStats()));
    case MessageType::kMetrics:
      counters_.metrics_requests.fetch_add(1, std::memory_order_relaxed);
      return EncodeFrame(MessageType::kMetricsResult,
                         MetricsRegistry::Global().Snapshot()
                             .ToPrometheusText());
    case MessageType::kQuery: {
      Result<QueryRequest> query = DecodeQueryRequest(frame.body);
      if (!query.ok()) {
        counters_.protocol_errors.fetch_add(1, std::memory_order_relaxed);
        metrics.protocol_errors->Increment();
        return ErrorFrame(WireError::kInvalidRequest,
                          query.status().message());
      }
      return DispatchQuery(std::move(query).value());
    }
    default:
      counters_.protocol_errors.fetch_add(1, std::memory_order_relaxed);
      metrics.protocol_errors->Increment();
      return ErrorFrame(WireError::kInvalidRequest,
                        std::string("response type ") +
                            MessageTypeName(frame.type) +
                            " sent as a request");
  }
}

std::string QueryServer::DispatchQuery(QueryRequest query) {
  ServerMetrics& metrics = ServerMetrics::Get();
  Status injected = CheckFailpoint("server/dispatch");
  if (!injected.ok()) {
    // An injected dispatch fault is a pre-admission shed: it must not
    // disturb the admitted == ok + error + drained reconciliation.
    counters_.shed_queue.fetch_add(1, std::memory_order_relaxed);
    metrics.shed_queue->Increment();
    return ErrorFrame(WireError::kOverloaded, injected.message());
  }
  if (draining_.load(std::memory_order_acquire)) {
    counters_.shed_draining.fetch_add(1, std::memory_order_relaxed);
    metrics.shed_draining->Increment();
    return ErrorFrame(WireError::kDraining, "server is draining");
  }
  // Queue admission: reserve an in-flight slot or shed.  fetch_add
  // first, undo on failure — never more than max_queue slots admitted.
  int inflight = inflight_.fetch_add(1, std::memory_order_acq_rel);
  if (inflight >= options_.max_queue) {
    inflight_.fetch_sub(1, std::memory_order_acq_rel);
    counters_.shed_queue.fetch_add(1, std::memory_order_relaxed);
    metrics.shed_queue->Increment();
    return ErrorFrame(WireError::kOverloaded,
                      "admission queue full (" +
                          std::to_string(options_.max_queue) +
                          " requests in flight)");
  }
  // Memory admission: reserve this request's budget against the
  // server-wide high water.
  const std::int64_t reserve = options_.request_memory_budget_bytes;
  if (options_.memory_budget_bytes > 0 && reserve > 0) {
    std::int64_t total =
        reserved_bytes_.fetch_add(reserve, std::memory_order_acq_rel) +
        reserve;
    if (total > options_.memory_budget_bytes) {
      reserved_bytes_.fetch_sub(reserve, std::memory_order_acq_rel);
      inflight_.fetch_sub(1, std::memory_order_acq_rel);
      counters_.shed_memory.fetch_add(1, std::memory_order_relaxed);
      metrics.shed_memory->Increment();
      return ErrorFrame(WireError::kOverloaded,
                        "server memory high-water reached");
    }
    metrics.reserved_bytes->Set(total);
  }
  counters_.requests_admitted.fetch_add(1, std::memory_order_relaxed);
  metrics.admitted->Increment();
  metrics.inflight->Set(inflight + 1);
  const Clock::time_point admitted_at = Clock::now();

  PendingRequest pending;
  pending.query = std::move(query);
  {
    std::lock_guard<std::mutex> lock(queue_mu_);
    queue_.push_back(&pending);
  }
  queue_cv_.notify_one();
  std::string response;
  {
    std::unique_lock<std::mutex> lock(pending.mu);
    pending.cv.wait(lock, [&] { return pending.completed; });
    response = std::move(pending.response);
  }
  metrics.request_latency_ms->Observe(MillisSince(admitted_at));
  if (options_.memory_budget_bytes > 0 && reserve > 0) {
    metrics.reserved_bytes->Set(
        reserved_bytes_.fetch_sub(reserve, std::memory_order_acq_rel) -
        reserve);
  }
  metrics.inflight->Set(inflight_.fetch_sub(1, std::memory_order_acq_rel) -
                        1);
  return response;
}

void QueryServer::WorkerLoop() {
  while (true) {
    PendingRequest* request = nullptr;
    {
      std::unique_lock<std::mutex> lock(queue_mu_);
      queue_cv_.wait(lock, [&] {
        return !queue_.empty() ||
               stop_workers_.load(std::memory_order_acquire);
      });
      if (queue_.empty()) {
        // stop_workers_ and an empty queue: every admitted request has
        // been answered (workers only stop after the queue is dry, so
        // the reconciliation invariant cannot leak a request).
        return;
      }
      request = queue_.front();
      queue_.pop_front();
    }
    std::string response = ExecuteQuery(request->query);
    {
      // Notify under the lock: the PendingRequest lives on the
      // dispatcher's stack and is destroyed as soon as it observes
      // `completed`, so an unlocked notify could outlive the cv.
      std::lock_guard<std::mutex> lock(request->mu);
      request->response = std::move(response);
      request->completed = true;
      request->cv.notify_one();
    }
  }
}

std::string QueryServer::ExecuteQuery(const QueryRequest& query) {
  ServerMetrics& metrics = ServerMetrics::Get();
  auto served_error = [&](WireError code, std::string message) {
    counters_.served_error.fetch_add(1, std::memory_order_relaxed);
    metrics.served_error->Increment();
    return ErrorFrame(code, std::move(message));
  };

  // Pin the current corpus generation for this query's whole run: a
  // SwapCorpus() racing with us retires the cache from new dispatches,
  // but this shared_ptr (and the entry's own pin below) keeps the tree
  // alive and the answer consistent — no query ever observes a
  // half-swapped generation.
  std::shared_ptr<const ResidentTreeCache> corpus = this->corpus();
  std::shared_ptr<const ResidentTreeCache::Prepared> tree =
      corpus->Lookup(query.tree_name);
  if (tree == nullptr) {
    return served_error(WireError::kNotFound,
                        "unknown tree '" + query.tree_name + "'");
  }
  Result<Program> program = ParseProgramText(query.program_text);
  if (!program.ok()) {
    return served_error(WireError::kInvalidRequest,
                        program.status().message());
  }
  const std::uint64_t poison_key = QuarantineKey(query);
  if (IsQuarantined(poison_key)) {
    counters_.quarantined.fetch_add(1, std::memory_order_relaxed);
    metrics.quarantined->Increment();
    return served_error(
        WireError::kQuarantined,
        "query quarantined: tripped the governor " +
            std::to_string(options_.max_consecutive_failures) +
            " consecutive times on tree '" + query.tree_name + "'");
  }

  BatchJob job;
  job.program = &program.value();
  job.deadline_ms =
      query.deadline_ms > 0
          ? std::min<std::int64_t>(query.deadline_ms, options_.max_deadline_ms)
          : options_.default_deadline_ms;
  job.memory_budget_bytes = options_.request_memory_budget_bytes;
  job.job_id = next_request_id_.fetch_add(1, std::memory_order_relaxed);
  JobResult result = RunResidentJob(job, tree->delimited, cancel_);

  if (!result.status.ok()) {
    if (result.status.code() == StatusCode::kCancelled) {
      // Only the drain path cancels; the client sees the typed code and
      // the books count it separately from real failures.
      counters_.drained.fetch_add(1, std::memory_order_relaxed);
      metrics.drained->Increment();
      return ErrorFrame(WireError::kCancelled,
                        "request cancelled by server drain");
    }
    RecordQuarantineOutcome(
        poison_key,
        result.status.code() == StatusCode::kDeadlineExceeded ||
            result.status.code() == StatusCode::kResourceExhausted);
    return served_error(WireErrorFromStatus(result.status.code()),
                        result.status.message());
  }
  RecordQuarantineOutcome(poison_key, /*governor_tripped=*/false);
  counters_.planner_picks_reference.fetch_add(
      result.run.stats.planner_picks_reference, std::memory_order_relaxed);
  counters_.planner_picks_interval.fetch_add(
      result.run.stats.planner_picks_interval, std::memory_order_relaxed);
  counters_.served_ok.fetch_add(1, std::memory_order_relaxed);
  metrics.served_ok->Increment();
  QueryResultMsg msg;
  msg.accepted = result.run.accepted;
  msg.rung = static_cast<std::uint8_t>(
      result.attempts.empty() ? 0 : result.attempts.back().rung);
  msg.attempts = static_cast<std::uint32_t>(result.attempts.size());
  msg.steps = result.run.stats.steps;
  msg.atp_calls = result.run.stats.atp_calls;
  return EncodeFrame(MessageType::kQueryResult, EncodeQueryResult(msg));
}

StatsMap QueryServer::BuildStats() const {
  StatsMap stats;
  auto put = [&stats](const char* key, std::int64_t value) {
    stats.entries.emplace_back(key, value);
  };
  const ServerCounters& c = counters_;
  put("server.connections_accepted",
      c.connections_accepted.load(std::memory_order_relaxed));
  put("server.connections_rejected",
      c.connections_rejected.load(std::memory_order_relaxed));
  put("server.admitted", c.requests_admitted.load(std::memory_order_relaxed));
  put("server.served_ok", c.served_ok.load(std::memory_order_relaxed));
  put("server.served_error", c.served_error.load(std::memory_order_relaxed));
  put("server.drained", c.drained.load(std::memory_order_relaxed));
  put("server.shed_queue", c.shed_queue.load(std::memory_order_relaxed));
  put("server.shed_memory", c.shed_memory.load(std::memory_order_relaxed));
  put("server.shed_draining",
      c.shed_draining.load(std::memory_order_relaxed));
  put("server.protocol_errors",
      c.protocol_errors.load(std::memory_order_relaxed));
  put("server.slow_clients_reaped",
      c.slow_clients_reaped.load(std::memory_order_relaxed));
  put("server.pings", c.pings.load(std::memory_order_relaxed));
  put("server.stats_requests",
      c.stats_requests.load(std::memory_order_relaxed));
  put("server.metrics_requests",
      c.metrics_requests.load(std::memory_order_relaxed));
  put("server.health_probes",
      c.health_probes.load(std::memory_order_relaxed));
  put("server.ready_probes", c.ready_probes.load(std::memory_order_relaxed));
  put("server.quarantined", c.quarantined.load(std::memory_order_relaxed));
  put("server.reloads", c.reloads.load(std::memory_order_relaxed));
  put("planner.picks_reference",
      c.planner_picks_reference.load(std::memory_order_relaxed));
  put("planner.picks_interval",
      c.planner_picks_interval.load(std::memory_order_relaxed));
  put("server.inflight", inflight_.load(std::memory_order_relaxed));
  put("server.open_connections",
      open_connections_.load(std::memory_order_relaxed));
  put("server.reserved_bytes",
      reserved_bytes_.load(std::memory_order_relaxed));
  put("server.draining", draining_.load(std::memory_order_acquire) ? 1 : 0);
  put("server.ready", ready() ? 1 : 0);
  std::shared_ptr<const ResidentTreeCache> corpus = this->corpus();
  put("corpus.generation", static_cast<std::int64_t>(corpus->generation()));
  put("corpus.resident_trees", corpus->resident_trees());
  put("corpus.resident_bytes", corpus->resident_bytes());
  put("corpus.capacity_bytes", corpus->capacity_bytes());
  return stats;
}

bool QueryServer::ready() const {
  if (draining_.load(std::memory_order_acquire)) return false;
  {
    std::lock_guard<std::mutex> lock(lifecycle_mu_);
    if (!started_ || terminated_) return false;
  }
  std::shared_ptr<const ResidentTreeCache> corpus = this->corpus();
  return corpus != nullptr && corpus->resident_trees() > 0;
}

std::shared_ptr<const ResidentTreeCache> QueryServer::corpus() const {
  std::lock_guard<std::mutex> lock(corpus_mu_);
  return corpus_;
}

void QueryServer::SwapCorpus(std::shared_ptr<const ResidentTreeCache> next,
                             double build_ms) {
  if (next == nullptr) return;
  ServerMetrics& metrics = ServerMetrics::Get();
  std::shared_ptr<const ResidentTreeCache> old;
  {
    std::lock_guard<std::mutex> lock(corpus_mu_);
    old = std::move(corpus_);
    corpus_ = std::move(next);
    metrics.corpus_generation->Set(
        static_cast<std::int64_t>(corpus_->generation()));
  }
  {
    // A new corpus invalidates old poison verdicts: the tree contents
    // behind a fingerprint may have changed.
    std::lock_guard<std::mutex> lock(quarantine_mu_);
    quarantine_.clear();
  }
  counters_.reloads.fetch_add(1, std::memory_order_relaxed);
  metrics.reloads->Increment();
  metrics.reload_latency_ms->Observe(build_ms);
  // `old` dies here unless in-flight queries pinned it; then the last
  // pin's release frees the generation (and its accountant's books).
}

std::uint64_t QueryServer::QuarantineKey(const QueryRequest& query) {
  // Fingerprint the pair, not the request: deadline_ms is excluded so a
  // client cannot dodge the quarantine by re-submitting with a
  // different budget.  The '\0' separator keeps ("ab","c") distinct
  // from ("a","bc"); tree names never contain NUL.
  std::uint64_t h = Fnv1a64(query.tree_name);
  h = Fnv1a64(std::string_view("\0", 1), h);
  return Fnv1a64(query.program_text, h);
}

bool QueryServer::IsQuarantined(std::uint64_t key) {
  if (options_.max_consecutive_failures <= 0) return false;
  std::lock_guard<std::mutex> lock(quarantine_mu_);
  auto it = quarantine_.find(key);
  return it != quarantine_.end() &&
         it->second >= options_.max_consecutive_failures;
}

void QueryServer::RecordQuarantineOutcome(std::uint64_t key,
                                          bool governor_tripped) {
  if (options_.max_consecutive_failures <= 0) return;
  std::lock_guard<std::mutex> lock(quarantine_mu_);
  if (!governor_tripped) {
    quarantine_.erase(key);
    return;
  }
  if (quarantine_.size() >= kQuarantineTableCap &&
      quarantine_.find(key) == quarantine_.end()) {
    quarantine_.clear();
  }
  ++quarantine_[key];
}

void QueryServer::BeginDrain() {
  bool expected = false;
  if (!draining_.compare_exchange_strong(expected, true,
                                         std::memory_order_acq_rel)) {
    return;
  }
  queue_cv_.notify_all();
}

void QueryServer::JoinFinishedConnections() {
  std::lock_guard<std::mutex> lock(conns_mu_);
  for (auto it = conns_.begin(); it != conns_.end();) {
    if ((*it)->done.load(std::memory_order_acquire)) {
      if ((*it)->thread.joinable()) (*it)->thread.join();
      it = conns_.erase(it);
    } else {
      ++it;
    }
  }
}

void QueryServer::AwaitTermination() {
  {
    std::lock_guard<std::mutex> lock(lifecycle_mu_);
    if (!started_ || terminated_) return;
    terminated_ = true;
  }
  BeginDrain();
  if (accept_thread_.joinable()) accept_thread_.join();
  if (listen_fd_ >= 0) {
    close(listen_fd_);
    listen_fd_ = -1;
  }

  // Grace phase: in-flight requests get drain_deadline_ms to finish.
  const Clock::time_point grace_deadline =
      Clock::now() + std::chrono::milliseconds(options_.drain_deadline_ms);
  while (inflight_.load(std::memory_order_acquire) > 0 &&
         Clock::now() < grace_deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  // Force phase: cooperatively cancel whatever is still running — every
  // running query aborts at its next transition with kCancelled and is
  // accounted `drained`.
  if (inflight_.load(std::memory_order_acquire) > 0) {
    cancel_.store(true, std::memory_order_release);
    queue_cv_.notify_all();
    while (inflight_.load(std::memory_order_acquire) > 0) {
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
  }
  // Every admitted request is answered; unblock idle readers and join
  // the connection fleet.
  {
    std::lock_guard<std::mutex> lock(conns_mu_);
    for (const auto& conn : conns_) {
      if (!conn->done.load(std::memory_order_acquire)) {
        shutdown(conn->fd, SHUT_RDWR);
      }
    }
  }
  {
    std::lock_guard<std::mutex> lock(conns_mu_);
    for (auto& conn : conns_) {
      if (conn->thread.joinable()) conn->thread.join();
    }
    conns_.clear();
  }
  stop_workers_.store(true, std::memory_order_release);
  queue_cv_.notify_all();
  for (std::thread& worker : workers_) {
    if (worker.joinable()) worker.join();
  }
  workers_.clear();
}

}  // namespace treewalk
