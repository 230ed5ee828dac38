// Live-reload and probe suite for `twq serve`
// (docs/SERVER.md): the in-process half of the crash-only story.
//
//   - SwapCorpus is atomic: queries before the swap answer from the old
//     generation, queries after it from the new one, and both answers
//     match what a fresh single-shot evaluation of the same
//     (program, tree) pair produces — no half-swapped state is ever
//     observable.
//   - In-flight queries pin their generation: a query running across a
//     swap completes correctly against the corpus it started on, and
//     the old generation's memory is released exactly when the last
//     pin drops (observed through a weak_ptr).
//   - kHealth is liveness, kReady is readiness: they diverge during a
//     drain, and an empty corpus is alive but never ready.
//   - The daemon keeps no memory of failures across queries: a pair
//     that trips the governor again and again runs, and is answered
//     kDeadlineExceeded, every time.
//
// Runs under ASan (asan-focus) and TSan (threaded) in CI.

#include <gtest/gtest.h>

#include <unistd.h>

#include <atomic>
#include <chrono>
#include <memory>
#include <string>
#include <thread>

#include "src/common/metrics.h"
#include "src/engine/input_cache.h"
#include "src/server/frame.h"
#include "src/server/server.h"
#include "src/tree/generate.h"
#include "src/tree/term_io.h"
#include "tests/serve_test_util.h"

namespace treewalk {
namespace {

using serve_test::Connect;
using serve_test::Exchange;
using serve_test::kAcceptAllProgram;
using serve_test::kScanProgram;
using serve_test::QueryFrame;

class ServeReloadTest : public ::testing::Test {
 protected:
  void SetUp() override {
    MetricsRegistry::Global().ResetForTest();
  }
};

/// Corpus generation holding one tree under the fixed name "t".
std::shared_ptr<ResidentTreeCache> OneTreeCorpus(const std::string& term,
                                                 std::uint64_t generation) {
  auto corpus = std::make_shared<ResidentTreeCache>(0, generation);
  auto entry = corpus->GetOrLoad(
      "t", [&] { return ResidentTreeCache::DelimitSource(ParseTerm(term)); });
  EXPECT_TRUE(entry.ok()) << entry.status().ToString();
  return corpus;
}

/// Sends one query and decodes the result; fails the test on anything
/// that is not a served verdict.
bool QueryVerdict(int port, const std::string& tree,
                  const std::string& program, std::uint32_t deadline_ms = 0) {
  int fd = Connect(port);
  EXPECT_GE(fd, 0);
  MessageType type;
  std::string body;
  EXPECT_TRUE(Exchange(fd, QueryFrame(tree, program, deadline_ms), type,
                       body));
  close(fd);
  EXPECT_EQ(type, MessageType::kQueryResult)
      << "got " << MessageTypeName(type);
  Result<QueryResultMsg> result = DecodeQueryResult(body);
  EXPECT_TRUE(result.ok());
  return result.ok() && result->accepted;
}

/// Sends one query expecting a typed error; returns its code.
WireError QueryError(int port, const std::string& tree,
                     const std::string& program,
                     std::uint32_t deadline_ms = 0) {
  int fd = Connect(port);
  EXPECT_GE(fd, 0);
  MessageType type;
  std::string body;
  EXPECT_TRUE(Exchange(fd, QueryFrame(tree, program, deadline_ms), type,
                       body));
  close(fd);
  EXPECT_EQ(type, MessageType::kError) << "got " << MessageTypeName(type);
  Result<ErrorMsg> error = DecodeError(body);
  EXPECT_TRUE(error.ok());
  return error.ok() ? error->code : WireError::kInternal;
}

/// Probe exchange on an already-open connection.
bool ProbeOn(int fd, MessageType probe, MessageType expect_reply) {
  MessageType type;
  std::string body;
  EXPECT_TRUE(Exchange(fd, EncodeFrame(probe, ""), type, body));
  EXPECT_EQ(type, expect_reply) << "got " << MessageTypeName(type);
  Result<ProbeResultMsg> result = DecodeProbeResult(body);
  EXPECT_TRUE(result.ok()) << result.status().ToString();
  return result.ok() && result->ok;
}

TEST_F(ServeReloadTest, SwapIsAtomicAndMatchesSingleShotAnswers) {
  // Generation 0: no "needle" anywhere — the scan rejects.  Generation
  // 1: a needle child — the scan accepts.  The verdict flip is the
  // observable proof of which corpus answered.
  auto gen0 = OneTreeCorpus("a(b, c)", 0);
  QueryServer server(ServerOptions{}, gen0);
  gen0.reset();
  ASSERT_TRUE(server.Start().ok());

  EXPECT_TRUE(QueryVerdict(server.port(), "t", kAcceptAllProgram));
  EXPECT_FALSE(QueryVerdict(server.port(), "t", kScanProgram));
  EXPECT_EQ(server.corpus()->generation(), 0u);

  server.SwapCorpus(OneTreeCorpus("a(needle, c)", 1), 1.5);

  // Same wire requests, new generation: the scan now accepts, the
  // accept-all answer is unchanged — exactly the single-shot answers
  // for the new tree.  No query ever sees a half-swapped corpus: the
  // generation is one shared_ptr, swapped under a lock.
  EXPECT_TRUE(QueryVerdict(server.port(), "t", kAcceptAllProgram));
  EXPECT_TRUE(QueryVerdict(server.port(), "t", kScanProgram));
  EXPECT_EQ(server.corpus()->generation(), 1u);
  EXPECT_EQ(server.counters().reloads.load(), 1);

  StatsMap stats = server.BuildStats();
  EXPECT_EQ(stats.Value("corpus.generation"), 1);
  EXPECT_EQ(stats.Value("server.reloads"), 1);

  server.BeginDrain();
  server.AwaitTermination();
}

TEST_F(ServeReloadTest, InFlightQueryPinsOldGenerationUntilItAnswers) {
  // The old generation's "t" is big enough that a full scan takes real
  // time (917,504 steps over delim(t)'s ~655k nodes, just under the
  // default 1M-step cap: tens of ms even in a release build); the new
  // generation's "t" contains a needle, so a scan answered by the *new*
  // corpus would ACCEPT.  The in-flight query must REJECT: it pinned
  // the old generation at dispatch.
  auto gen0 = std::make_shared<ResidentTreeCache>(0, 0);
  ASSERT_TRUE(gen0->GetOrLoad("t", [] {
                    return ResidentTreeCache::DelimitSource(FullTree(2, 17));
                  })
                  .ok());
  std::weak_ptr<ResidentTreeCache> old_generation = gen0;

  ServerOptions options;
  // Generous: under TSan the ~262k-node scan runs 10-20x slower than
  // release, and the deadline is not what this test is about.
  options.default_deadline_ms = 120000;
  options.drain_deadline_ms = 120000;
  QueryServer server(options, gen0);
  gen0.reset();
  ASSERT_TRUE(server.Start().ok());
  // Only the server holds the generation until a query pins it.
  const long unpinned = old_generation.use_count();
  auto gen1 = OneTreeCorpus("a(needle)", 1);

  std::atomic<bool> in_flight_accepted{false};
  std::atomic<bool> in_flight_done{false};
  std::thread slow([&] {
    in_flight_accepted.store(
        QueryVerdict(server.port(), "t", kScanProgram),
        std::memory_order_release);
    in_flight_done.store(true, std::memory_order_release);
  });

  // Swap once the scan's worker has pinned the old generation (one more
  // reference than the server's own), while the scan still runs.
  while (old_generation.use_count() <= unpinned &&
         !in_flight_done.load(std::memory_order_acquire)) {
    std::this_thread::sleep_for(std::chrono::microseconds(100));
  }
  server.SwapCorpus(std::move(gen1), 0.5);
  EXPECT_FALSE(in_flight_done.load(std::memory_order_acquire))
      << "the scan answered before the swap, so the pin went untested";
  EXPECT_FALSE(old_generation.expired())
      << "old generation released while a query could still be pinned on it";

  slow.join();
  EXPECT_TRUE(in_flight_done.load());
  EXPECT_FALSE(in_flight_accepted.load())
      << "in-flight query answered from the new generation";

  // New queries see the new generation.
  EXPECT_TRUE(QueryVerdict(server.port(), "t", kScanProgram));

  // With the last pin dropped, the old generation — and its
  // accountant's books — must die.
  for (int i = 0; i < 500 && !old_generation.expired(); ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  EXPECT_TRUE(old_generation.expired())
      << "old generation leaked after its last pin dropped";

  server.BeginDrain();
  server.AwaitTermination();
}

TEST_F(ServeReloadTest, HealthIsLivenessReadyIsReadiness) {
  auto corpus = OneTreeCorpus("a(b)", 0);
  ServerOptions options;
  options.drain_deadline_ms = 200;
  QueryServer server(options, corpus);
  corpus.reset();
  ASSERT_TRUE(server.Start().ok());

  // Held connection from before the drain — the only kind that can
  // observe the draining state, since new accepts are refused then.
  int fd = Connect(server.port());
  ASSERT_GE(fd, 0);
  EXPECT_TRUE(ProbeOn(fd, MessageType::kHealth, MessageType::kHealthResult));
  EXPECT_TRUE(ProbeOn(fd, MessageType::kReady, MessageType::kReadyResult));
  EXPECT_TRUE(server.ready());

  server.BeginDrain();
  // Liveness and readiness diverge: the process still answers its
  // protocol (health ok) but must not be routed new work (ready false).
  EXPECT_TRUE(ProbeOn(fd, MessageType::kHealth, MessageType::kHealthResult));
  EXPECT_FALSE(ProbeOn(fd, MessageType::kReady, MessageType::kReadyResult));
  EXPECT_FALSE(server.ready());
  close(fd);

  server.AwaitTermination();
  EXPECT_GE(server.counters().health_probes.load(), 2);
  EXPECT_GE(server.counters().ready_probes.load(), 2);
}

TEST_F(ServeReloadTest, EmptyCorpusIsAliveButNeverReady) {
  auto empty = std::make_shared<ResidentTreeCache>(0, 0);
  QueryServer server(ServerOptions{}, empty);
  empty.reset();
  ASSERT_TRUE(server.Start().ok());

  int fd = Connect(server.port());
  ASSERT_GE(fd, 0);
  EXPECT_TRUE(ProbeOn(fd, MessageType::kHealth, MessageType::kHealthResult));
  EXPECT_FALSE(ProbeOn(fd, MessageType::kReady, MessageType::kReadyResult));
  close(fd);

  server.BeginDrain();
  server.AwaitTermination();
}

TEST_F(ServeReloadTest, RepeatedGovernorTripsEachAnswerDeadlineExceeded) {
  auto corpus = std::make_shared<ResidentTreeCache>(0, 0);
  ASSERT_TRUE(corpus->GetOrLoad("big", [] {
                    return ResidentTreeCache::DelimitSource(FullTree(2, 14));
                  })
                  .ok());
  QueryServer server(ServerOptions{}, corpus);
  corpus.reset();
  ASSERT_TRUE(server.Start().ok());
  for (int i = 0; i < 5; ++i) {
    EXPECT_EQ(QueryError(server.port(), "big", kScanProgram, 1),
              WireError::kDeadlineExceeded)
        << "attempt " << i;
  }
  EXPECT_EQ(server.counters().requests_admitted.load(), 5);
  EXPECT_EQ(server.counters().served_error.load(), 5);
  server.BeginDrain();
  server.AwaitTermination();
}

}  // namespace
}  // namespace treewalk
