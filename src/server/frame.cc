#include "src/server/frame.h"

#include <poll.h>
#include <sys/socket.h>

#include <algorithm>
#include <cerrno>
#include <cstring>

namespace treewalk {

namespace {

void PutU16(std::string& out, std::uint16_t v) {
  out.push_back(static_cast<char>(v & 0xff));
  out.push_back(static_cast<char>((v >> 8) & 0xff));
}

void PutU32(std::string& out, std::uint32_t v) {
  for (int i = 0; i < 4; ++i) {
    out.push_back(static_cast<char>((v >> (8 * i)) & 0xff));
  }
}

void PutU64(std::string& out, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    out.push_back(static_cast<char>((v >> (8 * i)) & 0xff));
  }
}

/// Bounds-checked little-endian cursor: every Get* advances or fails,
/// so decoders cannot read past the body no matter how it was cut.
class Cursor {
 public:
  explicit Cursor(std::string_view data) : data_(data) {}

  bool GetU8(std::uint8_t& v) {
    if (data_.size() < 1) return false;
    v = static_cast<std::uint8_t>(data_[0]);
    data_.remove_prefix(1);
    return true;
  }
  bool GetU16(std::uint16_t& v) {
    if (data_.size() < 2) return false;
    v = 0;
    for (int i = 0; i < 2; ++i) {
      v = static_cast<std::uint16_t>(
          v | static_cast<std::uint16_t>(
                  static_cast<unsigned char>(data_[static_cast<size_t>(i)]))
                  << (8 * i));
    }
    data_.remove_prefix(2);
    return true;
  }
  bool GetU32(std::uint32_t& v) {
    if (data_.size() < 4) return false;
    v = 0;
    for (int i = 0; i < 4; ++i) {
      v |= static_cast<std::uint32_t>(
               static_cast<unsigned char>(data_[static_cast<size_t>(i)]))
           << (8 * i);
    }
    data_.remove_prefix(4);
    return true;
  }
  bool GetU64(std::uint64_t& v) {
    if (data_.size() < 8) return false;
    v = 0;
    for (int i = 0; i < 8; ++i) {
      v |= static_cast<std::uint64_t>(
               static_cast<unsigned char>(data_[static_cast<size_t>(i)]))
           << (8 * i);
    }
    data_.remove_prefix(8);
    return true;
  }
  /// Reads a `len`-byte string.  The length was already decoded from
  /// the same bounded body, so this can never allocate more than the
  /// frame cap.
  bool GetBytes(std::size_t len, std::string& out) {
    if (data_.size() < len) return false;
    out.assign(data_.data(), len);
    data_.remove_prefix(len);
    return true;
  }
  bool empty() const { return data_.empty(); }

 private:
  std::string_view data_;
};

Status Malformed(const char* what) {
  return InvalidArgument(std::string("malformed frame: ") + what);
}

}  // namespace

const char* MessageTypeName(MessageType type) {
  switch (type) {
    case MessageType::kQuery: return "query";
    case MessageType::kStats: return "stats";
    case MessageType::kMetrics: return "metrics";
    case MessageType::kPing: return "ping";
    case MessageType::kHealth: return "health";
    case MessageType::kReady: return "ready";
    case MessageType::kQueryResult: return "query-result";
    case MessageType::kError: return "error";
    case MessageType::kStatsResult: return "stats-result";
    case MessageType::kMetricsResult: return "metrics-result";
    case MessageType::kPong: return "pong";
    case MessageType::kHealthResult: return "health-result";
    case MessageType::kReadyResult: return "ready-result";
  }
  return "?";
}

const char* WireErrorName(WireError code) {
  switch (code) {
    case WireError::kOverloaded: return "kOverloaded";
    case WireError::kDraining: return "kDraining";
    case WireError::kInvalidRequest: return "kInvalidRequest";
    case WireError::kNotFound: return "kNotFound";
    case WireError::kDeadlineExceeded: return "kDeadlineExceeded";
    case WireError::kResourceExhausted: return "kResourceExhausted";
    case WireError::kCancelled: return "kCancelled";
    case WireError::kRejectedProgram: return "kRejectedProgram";
    case WireError::kInternal: return "kInternal";
    case WireError::kQuarantined: return "kQuarantined";
  }
  return "?";
}

WireError WireErrorFromStatus(StatusCode code) {
  switch (code) {
    case StatusCode::kInvalidArgument: return WireError::kInvalidRequest;
    case StatusCode::kNotFound: return WireError::kNotFound;
    case StatusCode::kDeadlineExceeded: return WireError::kDeadlineExceeded;
    case StatusCode::kResourceExhausted: return WireError::kResourceExhausted;
    case StatusCode::kCancelled: return WireError::kCancelled;
    case StatusCode::kFailedPrecondition:
    case StatusCode::kNondeterminism:
      return WireError::kRejectedProgram;
    case StatusCode::kOk:
    case StatusCode::kInternal:
      return WireError::kInternal;
  }
  return WireError::kInternal;
}

std::int64_t StatsMap::Value(std::string_view key,
                             std::int64_t fallback) const {
  for (const auto& [k, v] : entries) {
    if (k == key) return v;
  }
  return fallback;
}

std::string EncodeFrame(MessageType type, std::string_view body) {
  std::string out;
  std::uint32_t payload = static_cast<std::uint32_t>(body.size()) + 1;
  if (body.size() + 1 > kMaxFrameBytes) {
    // Truncating would emit garbage; an empty typed error is at least
    // honest.  Unreachable from our own encoders (caps are enforced at
    // build time below).
    return EncodeFrame(MessageType::kError,
                       EncodeError({WireError::kInternal, "oversized frame"}));
  }
  out.reserve(4 + payload);
  PutU32(out, payload);
  out.push_back(static_cast<char>(type));
  out.append(body);
  return out;
}

Result<std::uint32_t> DecodeFrameLength(const unsigned char prefix[4]) {
  std::uint32_t n = 0;
  for (int i = 0; i < 4; ++i) {
    n |= static_cast<std::uint32_t>(prefix[i]) << (8 * i);
  }
  if (n == 0) return Malformed("zero-length payload");
  if (n > kMaxFrameBytes) {
    return InvalidArgument("malformed frame: declared payload of " +
                           std::to_string(n) + " bytes exceeds the " +
                           std::to_string(kMaxFrameBytes) + "-byte cap");
  }
  return n;
}

Result<Frame> DecodeFramePayload(std::string_view payload) {
  if (payload.empty()) return Malformed("empty payload");
  auto raw = static_cast<std::uint8_t>(payload[0]);
  switch (static_cast<MessageType>(raw)) {
    case MessageType::kQuery:
    case MessageType::kStats:
    case MessageType::kMetrics:
    case MessageType::kPing:
    case MessageType::kHealth:
    case MessageType::kReady:
    case MessageType::kQueryResult:
    case MessageType::kError:
    case MessageType::kStatsResult:
    case MessageType::kMetricsResult:
    case MessageType::kPong:
    case MessageType::kHealthResult:
    case MessageType::kReadyResult:
      return Frame{static_cast<MessageType>(raw), payload.substr(1)};
  }
  return InvalidArgument("malformed frame: unknown message type " +
                         std::to_string(raw));
}

std::string EncodeQueryRequest(const QueryRequest& query) {
  std::string out;
  std::uint16_t name_len = static_cast<std::uint16_t>(
      std::min<std::size_t>(query.tree_name.size(), kMaxTreeNameBytes));
  std::uint32_t prog_len = static_cast<std::uint32_t>(
      std::min<std::size_t>(query.program_text.size(), kMaxFrameBytes));
  out.reserve(2 + name_len + 4 + prog_len + 4);
  PutU16(out, name_len);
  out.append(query.tree_name.data(), name_len);
  PutU32(out, prog_len);
  out.append(query.program_text.data(), prog_len);
  PutU32(out, query.deadline_ms);
  return out;
}

Result<QueryRequest> DecodeQueryRequest(std::string_view body) {
  Cursor cur(body);
  QueryRequest query;
  std::uint16_t name_len = 0;
  if (!cur.GetU16(name_len)) return Malformed("truncated tree-name length");
  if (name_len > kMaxTreeNameBytes) {
    return Malformed("tree name exceeds the 256-byte cap");
  }
  if (!cur.GetBytes(name_len, query.tree_name)) {
    return Malformed("truncated tree name");
  }
  std::uint32_t prog_len = 0;
  if (!cur.GetU32(prog_len)) return Malformed("truncated program length");
  // The body itself is already <= kMaxFrameBytes; this check turns an
  // inconsistent inner length into a typed error instead of a bounds
  // failure inside GetBytes.
  if (prog_len > kMaxFrameBytes) {
    return Malformed("program length exceeds the frame cap");
  }
  if (!cur.GetBytes(prog_len, query.program_text)) {
    return Malformed("truncated program text");
  }
  if (!cur.GetU32(query.deadline_ms)) {
    return Malformed("truncated deadline");
  }
  if (!cur.empty()) return Malformed("trailing bytes after query");
  return query;
}

std::string EncodeQueryResult(const QueryResultMsg& result) {
  std::string out;
  out.reserve(1 + 1 + 4 + 8 + 8);
  out.push_back(result.accepted ? 1 : 0);
  out.push_back(static_cast<char>(result.rung));
  PutU32(out, result.attempts);
  PutU64(out, static_cast<std::uint64_t>(result.steps));
  PutU64(out, static_cast<std::uint64_t>(result.atp_calls));
  return out;
}

Result<QueryResultMsg> DecodeQueryResult(std::string_view body) {
  Cursor cur(body);
  QueryResultMsg result;
  std::uint8_t accepted = 0;
  std::uint64_t steps = 0, atp = 0;
  if (!cur.GetU8(accepted) || accepted > 1) {
    return Malformed("bad accepted flag");
  }
  if (!cur.GetU8(result.rung)) return Malformed("truncated rung");
  if (!cur.GetU32(result.attempts)) return Malformed("truncated attempts");
  if (!cur.GetU64(steps) || !cur.GetU64(atp)) {
    return Malformed("truncated counters");
  }
  if (!cur.empty()) return Malformed("trailing bytes after query result");
  result.accepted = accepted == 1;
  result.steps = static_cast<std::int64_t>(steps);
  result.atp_calls = static_cast<std::int64_t>(atp);
  return result;
}

std::string EncodeError(const ErrorMsg& error) {
  std::string out;
  std::uint32_t msg_len = static_cast<std::uint32_t>(
      std::min<std::size_t>(error.message.size(), 4096));
  out.reserve(1 + 4 + msg_len);
  out.push_back(static_cast<char>(error.code));
  PutU32(out, msg_len);
  out.append(error.message.data(), msg_len);
  return out;
}

Result<ErrorMsg> DecodeError(std::string_view body) {
  Cursor cur(body);
  ErrorMsg error;
  std::uint8_t code = 0;
  if (!cur.GetU8(code)) return Malformed("truncated error code");
  if (code < static_cast<std::uint8_t>(WireError::kOverloaded) ||
      code > static_cast<std::uint8_t>(WireError::kQuarantined)) {
    return Malformed("unknown error code");
  }
  error.code = static_cast<WireError>(code);
  std::uint32_t msg_len = 0;
  if (!cur.GetU32(msg_len)) return Malformed("truncated message length");
  if (msg_len > kMaxFrameBytes) return Malformed("oversized error message");
  if (!cur.GetBytes(msg_len, error.message)) {
    return Malformed("truncated error message");
  }
  if (!cur.empty()) return Malformed("trailing bytes after error");
  return error;
}

std::string EncodeProbeResult(const ProbeResultMsg& probe) {
  std::string out;
  out.push_back(probe.ok ? 1 : 0);
  return out;
}

Result<ProbeResultMsg> DecodeProbeResult(std::string_view body) {
  Cursor cur(body);
  std::uint8_t ok = 0;
  if (!cur.GetU8(ok) || ok > 1) return Malformed("bad probe flag");
  if (!cur.empty()) return Malformed("trailing bytes after probe result");
  ProbeResultMsg probe;
  probe.ok = ok == 1;
  return probe;
}

std::string EncodeStats(const StatsMap& stats) {
  std::string out;
  PutU32(out, static_cast<std::uint32_t>(stats.entries.size()));
  for (const auto& [key, value] : stats.entries) {
    std::uint16_t key_len = static_cast<std::uint16_t>(
        std::min<std::size_t>(key.size(), 256));
    PutU16(out, key_len);
    out.append(key.data(), key_len);
    PutU64(out, static_cast<std::uint64_t>(value));
  }
  return out;
}

Result<StatsMap> DecodeStats(std::string_view body) {
  Cursor cur(body);
  StatsMap stats;
  std::uint32_t count = 0;
  if (!cur.GetU32(count)) return Malformed("truncated stats count");
  // Each entry is at least 2 + 8 bytes; an impossible count is rejected
  // before the reserve below can balloon.
  if (count > kMaxFrameBytes / 10) return Malformed("implausible stats count");
  stats.entries.reserve(count);
  for (std::uint32_t i = 0; i < count; ++i) {
    std::uint16_t key_len = 0;
    if (!cur.GetU16(key_len)) return Malformed("truncated stats key length");
    if (key_len > 256) return Malformed("oversized stats key");
    std::string key;
    if (!cur.GetBytes(key_len, key)) return Malformed("truncated stats key");
    std::uint64_t value = 0;
    if (!cur.GetU64(value)) return Malformed("truncated stats value");
    stats.entries.emplace_back(std::move(key),
                               static_cast<std::int64_t>(value));
  }
  if (!cur.empty()) return Malformed("trailing bytes after stats");
  return stats;
}

namespace {

/// poll() timeout for what is left before `deadline`; <= 0 once due.
std::int64_t MillisLeft(std::chrono::steady_clock::time_point deadline) {
  return std::chrono::duration_cast<std::chrono::milliseconds>(
             deadline - std::chrono::steady_clock::now())
      .count();
}

}  // namespace

IoStatus ReadFull(int fd, unsigned char* buf, std::size_t len,
                  std::chrono::steady_clock::time_point deadline) {
  std::size_t done = 0;
  while (done < len) {
    const std::int64_t left = MillisLeft(deadline);
    if (left <= 0) return IoStatus::kTimeout;
    struct pollfd pfd = {fd, POLLIN, 0};
    int pr = poll(&pfd, 1, static_cast<int>(left));
    if (pr < 0) {
      if (errno == EINTR) continue;
      return IoStatus::kError;
    }
    if (pr == 0) return IoStatus::kTimeout;
    ssize_t n = recv(fd, buf + done, len - done, 0);
    if (n == 0) return IoStatus::kEof;
    if (n < 0) {
      if (errno == EINTR || errno == EAGAIN) continue;
      return IoStatus::kError;
    }
    done += static_cast<std::size_t>(n);
  }
  return IoStatus::kOk;
}

IoStatus WriteFull(int fd, const char* buf, std::size_t len,
                   std::chrono::steady_clock::time_point deadline) {
  std::size_t done = 0;
  while (done < len) {
    const std::int64_t left = MillisLeft(deadline);
    if (left <= 0) return IoStatus::kTimeout;
    struct pollfd pfd = {fd, POLLOUT, 0};
    int pr = poll(&pfd, 1, static_cast<int>(left));
    if (pr < 0) {
      if (errno == EINTR) continue;
      return IoStatus::kError;
    }
    if (pr == 0) return IoStatus::kTimeout;
    ssize_t n = send(fd, buf + done, len - done, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR || errno == EAGAIN) continue;
      return IoStatus::kError;
    }
    done += static_cast<std::size_t>(n);
  }
  return IoStatus::kOk;
}

}  // namespace treewalk
