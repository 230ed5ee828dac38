#include "src/client/client.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <thread>
#include <utility>

#include "src/common/metrics.h"

namespace treewalk {

namespace {

using Clock = std::chrono::steady_clock;

/// Client instrument family (docs/OBSERVABILITY.md): fleet-wide sums
/// of the per-client counters, so a process hosting many QueryClients
/// (loadgen, the kill-loop harness) exports one coherent story.
struct ClientMetrics {
  Counter* attempts;
  Counter* retries;
  Counter* transport_errors;

  static ClientMetrics& Get() {
    static ClientMetrics* metrics = [] {
      auto* m = new ClientMetrics;
      MetricsRegistry& r = MetricsRegistry::Global();
      m->attempts = r.FindOrCreateCounter(
          "treewalk_client_attempts_total",
          "Query attempts launched by resilient clients (first tries "
          "and retries)");
      m->retries = r.FindOrCreateCounter(
          "treewalk_client_retries_total",
          "Query attempts after the first (jittered exponential "
          "backoff)");
      m->transport_errors = r.FindOrCreateCounter(
          "treewalk_client_transport_errors_total",
          "Connect/read/write failures observed by resilient clients");
      return m;
    }();
    return *metrics;
  }
};

std::int64_t MillisLeft(Clock::time_point deadline) {
  return std::chrono::duration_cast<std::chrono::milliseconds>(deadline -
                                                               Clock::now())
      .count();
}

/// Connect with a timeout (non-blocking connect + poll), then restore
/// blocking mode; -1 on failure.
int ConnectTo(const Endpoint& target, std::int64_t timeout_ms) {
  int fd = socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return -1;
  struct sockaddr_in addr = {};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<std::uint16_t>(target.port));
  if (inet_pton(AF_INET, target.host.c_str(), &addr.sin_addr) != 1) {
    close(fd);
    return -1;
  }
  int flags = fcntl(fd, F_GETFL, 0);
  fcntl(fd, F_SETFL, flags | O_NONBLOCK);
  int rc = connect(fd, reinterpret_cast<struct sockaddr*>(&addr),
                   sizeof(addr));
  if (rc != 0 && errno == EINPROGRESS) {
    struct pollfd pfd = {fd, POLLOUT, 0};
    rc = poll(&pfd, 1, static_cast<int>(std::max<std::int64_t>(
                           timeout_ms, 1))) == 1
             ? 0
             : -1;
    if (rc == 0) {
      int err = 0;
      socklen_t len = sizeof(err);
      if (getsockopt(fd, SOL_SOCKET, SO_ERROR, &err, &len) != 0 || err != 0) {
        rc = -1;
      }
    }
  }
  if (rc != 0) {
    close(fd);
    return -1;
  }
  fcntl(fd, F_SETFL, flags);
  return fd;
}

/// One framed request/response on an already-connected socket.
bool ExchangeOn(int fd, const std::string& request, std::int64_t wait_ms,
                MessageType& type, std::string& body) {
  const Clock::time_point deadline =
      Clock::now() + std::chrono::milliseconds(wait_ms);
  if (WriteFull(fd, request.data(), request.size(), deadline) !=
      IoStatus::kOk) {
    return false;
  }
  unsigned char prefix[4];
  if (ReadFull(fd, prefix, sizeof(prefix), deadline) != IoStatus::kOk) {
    return false;
  }
  Result<std::uint32_t> len = DecodeFrameLength(prefix);
  if (!len.ok()) return false;
  std::string payload(*len, '\0');
  if (ReadFull(fd, reinterpret_cast<unsigned char*>(payload.data()),
               payload.size(), deadline) != IoStatus::kOk) {
    return false;
  }
  Result<Frame> frame = DecodeFramePayload(payload);
  if (!frame.ok()) return false;
  type = frame->type;
  body.assign(frame->body);
  return true;
}

/// xorshift64* full-jitter: sleep uniformly in [0, window).
std::uint64_t NextRand(std::uint64_t& state) {
  state ^= state >> 12;
  state ^= state << 25;
  state ^= state >> 27;
  return state * 0x2545f4914f6cdd1dULL;
}

bool IsRetryableWireError(WireError code) {
  switch (code) {
    case WireError::kOverloaded:
    case WireError::kDraining:
    case WireError::kCancelled:
    case WireError::kInternal:
      return true;
    case WireError::kInvalidRequest:
    case WireError::kNotFound:
    case WireError::kDeadlineExceeded:
    case WireError::kResourceExhausted:
    case WireError::kRejectedProgram:
      return false;
  }
  return false;
}

}  // namespace

Status StatusFromWireError(WireError code, const std::string& message) {
  const std::string text =
      std::string(WireErrorName(code)) + ": " + message;
  switch (code) {
    case WireError::kOverloaded:
    case WireError::kDraining:
    case WireError::kResourceExhausted:
      return ResourceExhausted(text);
    case WireError::kInvalidRequest:
      return InvalidArgument(text);
    case WireError::kNotFound:
      return NotFound(text);
    case WireError::kDeadlineExceeded:
      return DeadlineExceeded(text);
    case WireError::kCancelled:
      return Cancelled(text);
    case WireError::kRejectedProgram:
      return FailedPrecondition(text);
    case WireError::kInternal:
      return Internal(text);
  }
  return Internal(text);
}

QueryClient::QueryClient(ClientOptions options)
    : options_(std::move(options)) {
  rng_state_ = options_.backoff_seed != 0
                   ? options_.backoff_seed
                   : 0x9e3779b97f4a7c15ULL ^
                         reinterpret_cast<std::uintptr_t>(this);
}

QueryClient::~QueryClient() {
  if (fd_ >= 0) close(fd_);
}

Status QueryClient::Connect() {
  if (fd_ >= 0) return Status::Ok();
  fd_ = ConnectTo(options_.endpoint, options_.connect_timeout_ms);
  if (fd_ < 0) {
    counters_.transport_errors.fetch_add(1, std::memory_order_relaxed);
    ClientMetrics::Get().transport_errors->Increment();
    return ResourceExhausted("cannot connect to " + options_.endpoint.host +
                             ":" + std::to_string(options_.endpoint.port));
  }
  counters_.reconnects.fetch_add(1, std::memory_order_relaxed);
  return Status::Ok();
}

QueryClient::ExchangeResult QueryClient::ExchangePrimary(
    const std::string& request, std::int64_t wait_ms) {
  ExchangeResult out;
  if (fd_ < 0 && !Connect().ok()) return out;
  if (!ExchangeOn(fd_, request, wait_ms, out.type, out.body)) {
    close(fd_);
    fd_ = -1;
    counters_.transport_errors.fetch_add(1, std::memory_order_relaxed);
    ClientMetrics::Get().transport_errors->Increment();
    return out;
  }
  out.transport_ok = true;
  return out;
}

QueryOutcome QueryClient::Query(const std::string& tree_name,
                                const std::string& program_text) {
  ClientMetrics& metrics = ClientMetrics::Get();
  QueryOutcome out;
  const Clock::time_point start = Clock::now();
  const bool budgeted = options_.total_deadline_ms > 0;
  const Clock::time_point budget_deadline =
      start + std::chrono::milliseconds(options_.total_deadline_ms);

  const int max_attempts = std::max(options_.retry.max_attempts, 1);
  for (int attempt = 1; attempt <= max_attempts; ++attempt) {
    // Deadline propagation: the wire deadline of *this* attempt is the
    // end-to-end budget minus everything already spent (connects,
    // failed attempts, backoff sleeps) — the server-side governor can
    // never run past the client's remaining patience.
    // The exchange wait must cover the time the server may
    // *legitimately* compute — the attempt's wire deadline plus wire
    // slack — with io_timeout_ms as the floor for deadline-less
    // requests; otherwise a long-deadline query is aborted client-side
    // mid-computation and miscounted as a transport failure.
    std::int64_t wire_deadline_ms = options_.request_deadline_ms;
    std::int64_t wait_ms =
        std::max(options_.io_timeout_ms, wire_deadline_ms + 50);
    if (budgeted) {
      std::int64_t remaining = MillisLeft(budget_deadline);
      if (remaining <= 0) {
        counters_.deadline_exhausted.fetch_add(1, std::memory_order_relaxed);
        out.status = DeadlineExceeded(
            "client budget of " +
            std::to_string(options_.total_deadline_ms) +
            " ms exhausted after " + std::to_string(attempt - 1) +
            " attempt(s)");
        return out;
      }
      // Under a budget the remaining budget *is* the stall guard: wait
      // exactly that long (plus slack), never past it.
      wire_deadline_ms = remaining;
      wait_ms = remaining + 50;
    }

    QueryRequest query;
    query.tree_name = tree_name;
    query.program_text = program_text;
    query.deadline_ms = static_cast<std::uint32_t>(
        std::max<std::int64_t>(wire_deadline_ms, 0));
    const std::string request =
        EncodeFrame(MessageType::kQuery, EncodeQueryRequest(query));

    counters_.attempts.fetch_add(1, std::memory_order_relaxed);
    metrics.attempts->Increment();
    if (attempt > 1) {
      counters_.retries.fetch_add(1, std::memory_order_relaxed);
      metrics.retries->Increment();
    }
    ++out.attempts;

    ExchangeResult got = ExchangePrimary(request, wait_ms);

    bool retryable;
    if (!got.transport_ok) {
      retryable = true;
      out.has_wire_error = false;
      out.status = ResourceExhausted(
          "transport failure against " + options_.endpoint.host + ":" +
          std::to_string(options_.endpoint.port));
    } else if (got.type == MessageType::kQueryResult) {
      Result<QueryResultMsg> result = DecodeQueryResult(got.body);
      if (result.ok()) {
        out.status = Status::Ok();
        out.result = *result;
        return out;
      }
      retryable = true;  // a garbled frame is a transport-class failure
      out.has_wire_error = false;
      out.status = Internal("undecodable query result: " +
                            result.status().message());
    } else if (got.type == MessageType::kError) {
      Result<ErrorMsg> error = DecodeError(got.body);
      WireError code = error.ok() ? error->code : WireError::kInternal;
      out.has_wire_error = true;
      out.wire_error = code;
      out.status = StatusFromWireError(
          code, error.ok() ? error->message : "undecodable error frame");
      retryable = IsRetryableWireError(code);
    } else {
      retryable = true;
      out.has_wire_error = false;
      out.status = Internal(std::string("unexpected response frame: ") +
                            MessageTypeName(got.type));
    }

    if (!retryable || attempt == max_attempts) return out;

    // Full-jitter exponential backoff, clamped to the remaining budget
    // (sleeping past the deadline would turn a retry into a timeout).
    // The window is min(initial << (attempt - 1), max), computed so that
    // a long retry ladder can neither overflow nor over-shift.
    const ClientRetry& retry = options_.retry;
    const int shift = attempt - 1;
    std::int64_t window = retry.max_backoff_ms;
    if (shift < 62 && retry.initial_backoff_ms <= (window >> shift)) {
      window = retry.initial_backoff_ms << shift;
    }
    if (window > 0) {
      std::int64_t sleep_ms = static_cast<std::int64_t>(
          NextRand(rng_state_) % static_cast<std::uint64_t>(window + 1));
      if (budgeted) {
        sleep_ms = std::min(sleep_ms,
                            std::max<std::int64_t>(
                                MillisLeft(budget_deadline), 0));
      }
      if (sleep_ms > 0) {
        std::this_thread::sleep_for(std::chrono::milliseconds(sleep_ms));
      }
    }
  }
  return out;  // unreachable: the loop always returns
}

Result<bool> QueryClient::Health() {
  ExchangeResult got = ExchangePrimary(
      EncodeFrame(MessageType::kHealth, ""), options_.io_timeout_ms);
  if (!got.transport_ok) return ResourceExhausted("health probe: no answer");
  if (got.type != MessageType::kHealthResult) {
    return Internal(std::string("health probe answered with ") +
                    MessageTypeName(got.type));
  }
  TREEWALK_ASSIGN_OR_RETURN(ProbeResultMsg probe,
                            DecodeProbeResult(got.body));
  return probe.ok;
}

Result<bool> QueryClient::Ready() {
  ExchangeResult got = ExchangePrimary(EncodeFrame(MessageType::kReady, ""),
                                       options_.io_timeout_ms);
  if (!got.transport_ok) return ResourceExhausted("ready probe: no answer");
  if (got.type != MessageType::kReadyResult) {
    return Internal(std::string("ready probe answered with ") +
                    MessageTypeName(got.type));
  }
  TREEWALK_ASSIGN_OR_RETURN(ProbeResultMsg probe,
                            DecodeProbeResult(got.body));
  return probe.ok;
}

Result<StatsMap> QueryClient::Stats() {
  ExchangeResult got = ExchangePrimary(EncodeFrame(MessageType::kStats, ""),
                                       options_.io_timeout_ms);
  if (!got.transport_ok) return ResourceExhausted("stats: no answer");
  if (got.type != MessageType::kStatsResult) {
    return Internal(std::string("stats answered with ") +
                    MessageTypeName(got.type));
  }
  return DecodeStats(got.body);
}

Status QueryClient::Ping() {
  ExchangeResult got = ExchangePrimary(EncodeFrame(MessageType::kPing, ""),
                                       options_.io_timeout_ms);
  if (!got.transport_ok) return ResourceExhausted("ping: no answer");
  if (got.type != MessageType::kPong) {
    return Internal(std::string("ping answered with ") +
                    MessageTypeName(got.type));
  }
  return Status::Ok();
}

}  // namespace treewalk
