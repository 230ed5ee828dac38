#ifndef TREEWALK_SERVER_FRAME_H_
#define TREEWALK_SERVER_FRAME_H_

/// Wire protocol of `twq serve` (docs/SERVER.md).
///
/// Every message is one length-prefixed frame:
///
///   u32  payload length N, little-endian, 1 <= N <= kMaxFrameBytes
///   u8   message type (MessageType)
///   ...  N-1 body bytes, layout per type
///
/// The length prefix is validated *before* any allocation, so an
/// adversarial 4 GiB prefix costs the server four bytes of reading and
/// one typed kInvalidArgument — never an allocation.  All integers are
/// little-endian and unaligned; strings are length-prefixed, never
/// NUL-terminated.  Decoders are total: any byte string produces either
/// a value or a typed Status (fuzzed by tests/fuzz/fuzz_serve_frame.cc;
/// malformation table in tests/serve_frame_test.cc).

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "src/common/result.h"
#include "src/common/status.h"

namespace treewalk {

/// Hard cap on one frame's payload (type byte + body).  Programs are
/// the only unbounded field; 1 MiB of program text is far beyond any
/// real query and small enough that a malicious fleet cannot balloon
/// the daemon by holding half-sent maximal frames.
inline constexpr std::uint32_t kMaxFrameBytes = 1u << 20;

/// Cap on a query's tree-name field (a corpus key, not a path).
inline constexpr std::uint32_t kMaxTreeNameBytes = 256;

/// On-wire message types.  Requests have the high bit clear, responses
/// set, so a stray response byte can never decode as a request.
enum class MessageType : std::uint8_t {
  kQuery = 0x01,    ///< run a program on a named corpus tree
  kStats = 0x02,    ///< server/engine counter snapshot (StatsMap)
  kMetrics = 0x03,  ///< live Prometheus text exposition
  kPing = 0x04,     ///< protocol echo (answered even by a server that
                    ///< could not serve a query; see kHealth/kReady)
  kHealth = 0x05,   ///< liveness probe: "is the process serving frames?"
  kReady = 0x06,    ///< readiness probe: "should a balancer send work?"

  kQueryResult = 0x81,   ///< QueryResultMsg
  kError = 0x82,         ///< ErrorMsg (typed; includes kOverloaded)
  kStatsResult = 0x83,   ///< StatsMap
  kMetricsResult = 0x84, ///< Prometheus text body
  kPong = 0x85,          ///< empty body
  kHealthResult = 0x86,  ///< ProbeResultMsg (ok == 1 whenever answered)
  kReadyResult = 0x87,   ///< ProbeResultMsg (ok == accepting work)
};

const char* MessageTypeName(MessageType type);

/// Typed error codes a server can answer with.  The first two are
/// server-boundary conditions with no StatusCode equivalent; the rest
/// mirror StatusCode so an engine failure maps 1:1 onto the wire.
enum class WireError : std::uint8_t {
  kOverloaded = 1,        ///< admission control shed this request
  kDraining = 2,          ///< server is draining; no new work accepted
  kInvalidRequest = 3,    ///< malformed frame or unparsable program
  kNotFound = 4,          ///< unknown tree name
  kDeadlineExceeded = 5,  ///< per-request deadline tripped
  kResourceExhausted = 6, ///< per-request memory/step budget tripped
  kCancelled = 7,         ///< request aborted by shutdown mid-run
  kRejectedProgram = 8,   ///< program violates its restriction class
  kInternal = 9,          ///< engine invariant violation / injected fault
  kQuarantined = 10,      ///< formula x tree pair quarantined as poison
};

const char* WireErrorName(WireError code);

/// StatusCode -> wire code for engine/parse failures (the server-side
/// boundary codes kOverloaded/kDraining/kQuarantined are produced by
/// the server, not mapped).
WireError WireErrorFromStatus(StatusCode code);

/// kQuery body.
struct QueryRequest {
  std::string tree_name;     ///< corpus key (u16 length prefix on wire)
  std::string program_text;  ///< .twp text (u32 length prefix on wire)
  /// Client deadline budget in ms; 0 = server default.  The server
  /// clamps it to its --max-deadline-ms.
  std::uint32_t deadline_ms = 0;
};

/// kQueryResult body.
struct QueryResultMsg {
  bool accepted = false;
  std::uint8_t rung = 0;       ///< degradation rung of the final attempt
  std::uint32_t attempts = 1;  ///< attempts the retry ladder ran
  std::int64_t steps = 0;
  std::int64_t atp_calls = 0;
};

/// kError body.
struct ErrorMsg {
  WireError code = WireError::kInternal;
  std::string message;
};

/// kHealthResult / kReadyResult body.  Liveness and readiness are
/// deliberately distinct (docs/SERVER.md, "Operational runbook"): a
/// draining server is alive (kHealthResult ok=1 on an established
/// connection) but not ready (kReadyResult ok=0), so a supervisor
/// restarts only dead processes while a balancer stops routing early.
struct ProbeResultMsg {
  bool ok = false;
};

/// kStatsResult body: an ordered key -> i64 map, self-describing so
/// the loadgen and tests can assert served/shed/drained counts without
/// scraping stderr.  Keys are catalogued in docs/SERVER.md.
struct StatsMap {
  std::vector<std::pair<std::string, std::int64_t>> entries;

  /// Value for `key`, or `fallback` when absent.
  std::int64_t Value(std::string_view key, std::int64_t fallback = 0) const;
};

/// Frames a payload (type byte + body) with its length prefix.  The
/// caller keeps bodies under kMaxFrameBytes; oversize is a programming
/// error and is clamped to an empty kError frame rather than silently
/// emitting an unparsable one.
std::string EncodeFrame(MessageType type, std::string_view body);

/// Validates a length prefix.  `prefix` must point at 4 bytes.
/// Returns the payload length, or kInvalidArgument for 0 or > cap —
/// *before* the caller allocates anything.
Result<std::uint32_t> DecodeFrameLength(const unsigned char prefix[4]);

/// One decoded frame: the type byte plus a view of the body (aliasing
/// the caller's buffer).
struct Frame {
  MessageType type = MessageType::kPing;
  std::string_view body;
};

/// Splits a complete payload (as sized by DecodeFrameLength) into type
/// and body, validating the type byte.
Result<Frame> DecodeFramePayload(std::string_view payload);

// Socket I/O for frames, shared by both ends of the wire (the daemon's
// connection loop and src/client).  Blocking socket + poll() against
// one deadline: a peer that stalls mid-frame trips kTimeout, a reset or
// a shutdown() trips kEof/kError promptly.  The server counts kTimeout
// as a slow-client reap; the client only asks for kOk.

enum class IoStatus { kOk, kEof, kTimeout, kError };

/// Reads exactly `len` bytes from `fd` before `deadline`.
IoStatus ReadFull(int fd, unsigned char* buf, std::size_t len,
                  std::chrono::steady_clock::time_point deadline);
/// Writes all `len` bytes to `fd` before `deadline`.  A peer that
/// closed mid-write is kError on this thread, never SIGPIPE.
IoStatus WriteFull(int fd, const char* buf, std::size_t len,
                   std::chrono::steady_clock::time_point deadline);

// Body codecs.  Encode* return the body only (frame with EncodeFrame);
// Decode* are total over arbitrary bytes.
std::string EncodeQueryRequest(const QueryRequest& query);
Result<QueryRequest> DecodeQueryRequest(std::string_view body);

std::string EncodeQueryResult(const QueryResultMsg& result);
Result<QueryResultMsg> DecodeQueryResult(std::string_view body);

std::string EncodeError(const ErrorMsg& error);
Result<ErrorMsg> DecodeError(std::string_view body);

std::string EncodeProbeResult(const ProbeResultMsg& probe);
Result<ProbeResultMsg> DecodeProbeResult(std::string_view body);

std::string EncodeStats(const StatsMap& stats);
Result<StatsMap> DecodeStats(std::string_view body);

}  // namespace treewalk

#endif  // TREEWALK_SERVER_FRAME_H_
