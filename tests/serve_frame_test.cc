// The wire protocol of `twq serve` (src/server/frame.h) must be total:
// every byte string either decodes or yields a typed Status, and the
// length prefix is judged before any allocation.  This file is the
// malformation table — every truncation point, every out-of-range
// field, every trailing byte — plus exact round-trips for each body
// codec.  The same decoders are fuzzed by tests/fuzz/fuzz_serve_frame.cc
// and its corpus replays in fuzz_corpus_test.cc.

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "src/common/result.h"
#include "src/common/status.h"
#include "src/server/frame.h"

namespace treewalk {
namespace {

std::string U32le(std::uint32_t v) {
  std::string out(4, '\0');
  for (int i = 0; i < 4; ++i) out[i] = static_cast<char>((v >> (8 * i)) & 0xff);
  return out;
}

// ---------------------------------------------------------------------------
// Length prefix: validated before allocation.

TEST(FrameLength, AcceptsTheFullValidRange) {
  for (std::uint32_t n : {1u, 2u, 1024u, kMaxFrameBytes}) {
    std::string prefix = U32le(n);
    Result<std::uint32_t> len = DecodeFrameLength(
        reinterpret_cast<const unsigned char*>(prefix.data()));
    ASSERT_TRUE(len.ok()) << n;
    EXPECT_EQ(*len, n);
  }
}

TEST(FrameLength, RejectsZeroAndOversize) {
  for (std::uint32_t n : {0u, kMaxFrameBytes + 1, 0x7fffffffu, 0xffffffffu}) {
    std::string prefix = U32le(n);
    Result<std::uint32_t> len = DecodeFrameLength(
        reinterpret_cast<const unsigned char*>(prefix.data()));
    EXPECT_FALSE(len.ok()) << n;
    EXPECT_EQ(len.status().code(), StatusCode::kInvalidArgument) << n;
  }
}

TEST(FramePayload, SplitsTypeAndBody) {
  std::string payload;
  payload.push_back(static_cast<char>(MessageType::kPing));
  Result<Frame> frame = DecodeFramePayload(payload);
  ASSERT_TRUE(frame.ok());
  EXPECT_EQ(frame->type, MessageType::kPing);
  EXPECT_TRUE(frame->body.empty());
}

TEST(FramePayload, RejectsEmptyAndUnknownTypes) {
  EXPECT_FALSE(DecodeFramePayload("").ok());
  // 0x05/0x06 and 0x86/0x87 are the probe types now; the first unknown
  // bytes on each side of the request/response split are 0x07 and 0x88.
  for (int type : {0x00, 0x07, 0x42, 0x80, 0x88, 0xff}) {
    std::string payload(1, static_cast<char>(type));
    Result<Frame> frame = DecodeFramePayload(payload);
    EXPECT_FALSE(frame.ok()) << "type 0x" << std::hex << type;
    EXPECT_EQ(frame.status().code(), StatusCode::kInvalidArgument);
  }
}

TEST(FrameEncode, PrefixRoundTripsThroughDecode) {
  std::string body = "payload-bytes";
  std::string wire = EncodeFrame(MessageType::kMetricsResult, body);
  ASSERT_GE(wire.size(), 5u);
  Result<std::uint32_t> len = DecodeFrameLength(
      reinterpret_cast<const unsigned char*>(wire.data()));
  ASSERT_TRUE(len.ok());
  EXPECT_EQ(*len, wire.size() - 4);
  Result<Frame> frame = DecodeFramePayload(
      std::string_view(wire).substr(4));
  ASSERT_TRUE(frame.ok());
  EXPECT_EQ(frame->type, MessageType::kMetricsResult);
  EXPECT_EQ(frame->body, body);
}

TEST(FrameEncode, OversizeBodyClampsToTypedErrorFrame) {
  std::string huge(kMaxFrameBytes + 16, 'x');
  std::string wire = EncodeFrame(MessageType::kMetricsResult, huge);
  Result<std::uint32_t> len = DecodeFrameLength(
      reinterpret_cast<const unsigned char*>(wire.data()));
  ASSERT_TRUE(len.ok());
  Result<Frame> frame = DecodeFramePayload(std::string_view(wire).substr(4));
  ASSERT_TRUE(frame.ok());
  EXPECT_EQ(frame->type, MessageType::kError);
}

// ---------------------------------------------------------------------------
// Body codecs: round-trips.

TEST(QueryRequestCodec, RoundTripsAllFields) {
  QueryRequest q;
  q.tree_name = "corpus/small.term";
  q.program_text = "class tw\nstates q0 qf\nrule #top q0 [true] move stay qf";
  q.deadline_ms = 1234;
  Result<QueryRequest> back = DecodeQueryRequest(EncodeQueryRequest(q));
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back->tree_name, q.tree_name);
  EXPECT_EQ(back->program_text, q.program_text);
  EXPECT_EQ(back->deadline_ms, q.deadline_ms);
}

TEST(QueryRequestCodec, RoundTripsEmptyStringsAndZeroDeadline) {
  QueryRequest q;  // all defaults
  Result<QueryRequest> back = DecodeQueryRequest(EncodeQueryRequest(q));
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back->tree_name, "");
  EXPECT_EQ(back->program_text, "");
  EXPECT_EQ(back->deadline_ms, 0u);
}

TEST(QueryResultCodec, RoundTripsBothVerdicts) {
  for (bool accepted : {false, true}) {
    QueryResultMsg r;
    r.accepted = accepted;
    r.rung = 3;
    r.attempts = 4;
    r.steps = 123456789012345ll;
    r.atp_calls = 9876543210ll;
    Result<QueryResultMsg> back = DecodeQueryResult(EncodeQueryResult(r));
    ASSERT_TRUE(back.ok());
    EXPECT_EQ(back->accepted, accepted);
    EXPECT_EQ(back->rung, r.rung);
    EXPECT_EQ(back->attempts, r.attempts);
    EXPECT_EQ(back->steps, r.steps);
    EXPECT_EQ(back->atp_calls, r.atp_calls);
  }
}

TEST(ErrorCodec, RoundTripsEveryWireError) {
  for (int code = 1; code <= 9; ++code) {
    ErrorMsg e;
    e.code = static_cast<WireError>(code);
    e.message = "why: code " + std::to_string(code);
    Result<ErrorMsg> back = DecodeError(EncodeError(e));
    ASSERT_TRUE(back.ok()) << code;
    EXPECT_EQ(back->code, e.code);
    EXPECT_EQ(back->message, e.message);
  }
}

TEST(StatsCodec, RoundTripsOrderedEntries) {
  StatsMap stats;
  stats.entries = {{"server.requests_admitted", 41},
                   {"server.served_ok", 40},
                   {"server.drained", 1},
                   {"corpus.resident_bytes", 1ll << 40},
                   {"negative", -7}};
  Result<StatsMap> back = DecodeStats(EncodeStats(stats));
  ASSERT_TRUE(back.ok());
  ASSERT_EQ(back->entries.size(), stats.entries.size());
  for (std::size_t i = 0; i < stats.entries.size(); ++i) {
    EXPECT_EQ(back->entries[i].first, stats.entries[i].first) << i;
    EXPECT_EQ(back->entries[i].second, stats.entries[i].second) << i;
  }
  EXPECT_EQ(back->Value("server.drained"), 1);
  EXPECT_EQ(back->Value("absent", -1), -1);
}

TEST(ProbeCodec, RoundTripsBothFlags) {
  for (bool ok : {false, true}) {
    ProbeResultMsg probe;
    probe.ok = ok;
    std::string body = EncodeProbeResult(probe);
    ASSERT_EQ(body.size(), 1u);  // a probe answer is exactly one byte
    Result<ProbeResultMsg> back = DecodeProbeResult(body);
    ASSERT_TRUE(back.ok());
    EXPECT_EQ(back->ok, ok);
  }
}

TEST(ProbeCodec, ProbeFramesAreMinimal) {
  // Probe requests carry no body: the frame is the 4-byte prefix plus
  // the type byte, nothing else — a balancer can afford to send one
  // per routing decision.
  for (MessageType probe : {MessageType::kHealth, MessageType::kReady}) {
    std::string wire = EncodeFrame(probe, "");
    EXPECT_EQ(wire.size(), 5u);
    Result<Frame> frame = DecodeFramePayload(std::string_view(wire).substr(4));
    ASSERT_TRUE(frame.ok());
    EXPECT_EQ(frame->type, probe);
    EXPECT_TRUE(frame->body.empty());
  }
}

// ---------------------------------------------------------------------------
// The malformation table.  Each case is a raw body handed to one
// decoder; every one must produce kInvalidArgument, never a crash and
// never a value.

enum class Codec { kQuery, kResult, kError, kStats, kProbe };

struct MalformedCase {
  const char* name;
  Codec codec;
  std::string body;
};

std::string Bytes(std::initializer_list<int> bytes) {
  std::string out;
  for (int b : bytes) out.push_back(static_cast<char>(b));
  return out;
}

std::vector<MalformedCase> MalformationTable() {
  std::vector<MalformedCase> table;

  // --- QueryRequest ---
  // Truncate a valid encoding at every byte boundary.
  QueryRequest q;
  q.tree_name = "t";
  q.program_text = "p";
  q.deadline_ms = 7;
  std::string valid = EncodeQueryRequest(q);
  for (std::size_t cut = 0; cut < valid.size(); ++cut) {
    table.push_back({"query/truncated", Codec::kQuery, valid.substr(0, cut)});
  }
  table.push_back({"query/trailing-byte", Codec::kQuery, valid + '\0'});
  // Name length runs past the buffer.
  table.push_back({"query/name-overruns", Codec::kQuery, Bytes({0x10, 0x00})});
  // Name length over the kMaxTreeNameBytes cap (buffer long enough).
  {
    std::string body = Bytes({0x01, 0x01});  // 257
    body.append(257, 'n');
    body += U32le(0);  // program length
    body += U32le(0);  // deadline
    table.push_back({"query/name-over-cap", Codec::kQuery, body});
  }
  // Program length field claims 4 GiB.
  {
    std::string body = Bytes({0x01, 0x00});
    body.push_back('n');
    body += U32le(0xffffffffu);
    table.push_back({"query/program-overruns", Codec::kQuery, body});
  }

  // --- QueryResultMsg ---
  QueryResultMsg r;
  r.accepted = true;
  std::string valid_result = EncodeQueryResult(r);
  for (std::size_t cut = 0; cut < valid_result.size(); ++cut) {
    table.push_back(
        {"result/truncated", Codec::kResult, valid_result.substr(0, cut)});
  }
  table.push_back({"result/trailing-byte", Codec::kResult, valid_result + 'x'});
  {
    std::string bad = valid_result;
    bad[0] = 2;  // accepted must be 0 or 1
    table.push_back({"result/accepted-out-of-range", Codec::kResult, bad});
  }

  // --- ErrorMsg ---
  ErrorMsg e;
  e.code = WireError::kOverloaded;
  e.message = "m";
  std::string valid_error = EncodeError(e);
  for (std::size_t cut = 0; cut < valid_error.size(); ++cut) {
    table.push_back(
        {"error/truncated", Codec::kError, valid_error.substr(0, cut)});
  }
  table.push_back({"error/trailing-byte", Codec::kError, valid_error + 'x'});
  {
    std::string bad = valid_error;
    bad[0] = 0;  // codes are 1..9 (kOverloaded..kInternal); 10 is retired
    table.push_back({"error/code-zero", Codec::kError, bad});
    bad[0] = 10;
    table.push_back({"error/code-ten", Codec::kError, bad});
  }
  {
    std::string body = Bytes({0x01});
    body += U32le(0xffffffffu);  // message length overruns
    table.push_back({"error/message-overruns", Codec::kError, body});
  }

  // --- StatsMap ---
  StatsMap stats;
  stats.entries = {{"k", 1}};
  std::string valid_stats = EncodeStats(stats);
  for (std::size_t cut = 0; cut < valid_stats.size(); ++cut) {
    table.push_back(
        {"stats/truncated", Codec::kStats, valid_stats.substr(0, cut)});
  }
  table.push_back({"stats/trailing-byte", Codec::kStats, valid_stats + 'x'});
  // Implausible entry count: would decode to more bytes than a frame
  // can carry, so it is rejected before any entry loop runs.
  table.push_back({"stats/implausible-count", Codec::kStats,
                   U32le(0xffffffffu)});
  // Key length over the cap.
  {
    std::string body = U32le(1);
    body += Bytes({0x01, 0x01});  // keylen 257
    body.append(257, 'k');
    body.append(8, '\0');
    table.push_back({"stats/key-over-cap", Codec::kStats, body});
  }

  // --- ProbeResultMsg ---
  table.push_back({"probe/empty", Codec::kProbe, ""});
  table.push_back({"probe/flag-two", Codec::kProbe, Bytes({0x02})});
  table.push_back({"probe/flag-255", Codec::kProbe, Bytes({0xff})});
  table.push_back({"probe/trailing-byte", Codec::kProbe, Bytes({0x01, 0x00})});

  return table;
}

TEST(MalformationTable, EveryCaseYieldsInvalidArgument) {
  int index = 0;
  for (const MalformedCase& test : MalformationTable()) {
    SCOPED_TRACE(std::string(test.name) + " (#" + std::to_string(index++) +
                 ", " + std::to_string(test.body.size()) + " bytes)");
    Status status = Status::Ok();
    switch (test.codec) {
      case Codec::kQuery:
        status = DecodeQueryRequest(test.body).status();
        break;
      case Codec::kResult:
        status = DecodeQueryResult(test.body).status();
        break;
      case Codec::kError:
        status = DecodeError(test.body).status();
        break;
      case Codec::kStats:
        status = DecodeStats(test.body).status();
        break;
      case Codec::kProbe:
        status = DecodeProbeResult(test.body).status();
        break;
    }
    EXPECT_FALSE(status.ok());
    EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
  }
}

// Every decoder must also survive arbitrary garbage of various sizes —
// a cheap deterministic mini-fuzz run on every tier-1 build.
TEST(MalformationTable, DeterministicGarbageNeverCrashes) {
  std::uint64_t rng = 0x6d5a56964b2c91d3ull;
  auto next = [&rng]() {
    rng ^= rng << 13;
    rng ^= rng >> 7;
    rng ^= rng << 17;
    return rng;
  };
  for (int round = 0; round < 512; ++round) {
    std::string body(static_cast<std::size_t>(next() % 64), '\0');
    for (char& c : body) c = static_cast<char>(next() & 0xff);
    (void)DecodeQueryRequest(body);
    (void)DecodeQueryResult(body);
    (void)DecodeError(body);
    (void)DecodeStats(body);
    (void)DecodeProbeResult(body);
    (void)DecodeFramePayload(body);
    if (body.size() >= 4) {
      (void)DecodeFrameLength(
          reinterpret_cast<const unsigned char*>(body.data()));
    }
  }
}

// ---------------------------------------------------------------------------
// Status -> wire mapping: exhaustive, and never the OK placeholder.

TEST(WireErrorMapping, CoversEveryStatusCode) {
  EXPECT_EQ(WireErrorFromStatus(StatusCode::kInvalidArgument),
            WireError::kInvalidRequest);
  EXPECT_EQ(WireErrorFromStatus(StatusCode::kNotFound), WireError::kNotFound);
  EXPECT_EQ(WireErrorFromStatus(StatusCode::kDeadlineExceeded),
            WireError::kDeadlineExceeded);
  EXPECT_EQ(WireErrorFromStatus(StatusCode::kResourceExhausted),
            WireError::kResourceExhausted);
  EXPECT_EQ(WireErrorFromStatus(StatusCode::kCancelled), WireError::kCancelled);
  EXPECT_EQ(WireErrorFromStatus(StatusCode::kFailedPrecondition),
            WireError::kRejectedProgram);
  EXPECT_EQ(WireErrorFromStatus(StatusCode::kNondeterminism),
            WireError::kRejectedProgram);
  EXPECT_EQ(WireErrorFromStatus(StatusCode::kInternal), WireError::kInternal);
}

TEST(WireErrorMapping, NamesAreStable) {
  EXPECT_STREQ(WireErrorName(WireError::kOverloaded), "kOverloaded");
  EXPECT_STREQ(WireErrorName(WireError::kDraining), "kDraining");
  EXPECT_STREQ(WireErrorName(WireError::kInternal), "kInternal");
  EXPECT_STREQ(MessageTypeName(MessageType::kQuery), "query");
  EXPECT_STREQ(MessageTypeName(MessageType::kPong), "pong");
  EXPECT_STREQ(MessageTypeName(MessageType::kHealth), "health");
  EXPECT_STREQ(MessageTypeName(MessageType::kReady), "ready");
  EXPECT_STREQ(MessageTypeName(MessageType::kHealthResult), "health-result");
  EXPECT_STREQ(MessageTypeName(MessageType::kReadyResult), "ready-result");
}

}  // namespace
}  // namespace treewalk
