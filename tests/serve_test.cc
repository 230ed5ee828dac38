// QueryServer (src/server/server.h) end to end over loopback sockets:
// query answers match the direct interpreter, every boundary condition
// comes back as a *typed* wire error (overload, draining, unknown tree,
// bad program, deadline), drain cancels in-flight work cooperatively,
// the books reconcile (admitted == ok + error + drained), and the
// SIGHUP/Install re-entrancy contract of src/engine/shutdown holds.
// The subprocess legs run tools/serve_smoke.sh against the real twq
// binary and assert the documented drain exit code 75, and check that
// `twq serve --cache-budget-mb` answers every tree it logs as loaded.

#include <gtest/gtest.h>

#include <fcntl.h>
#include <poll.h>
#include <sys/stat.h>
#include <sys/wait.h>

#include <csignal>
#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "src/automata/interpreter.h"
#include "src/automata/text_format.h"
#include "src/common/failpoint.h"
#include "src/common/metrics.h"
#include "src/engine/input_cache.h"
#include "src/engine/shutdown.h"
#include "src/server/frame.h"
#include "src/server/server.h"
#include "src/tree/delimited.h"
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
using serve_test::ReadFrame;
using serve_test::WriteAll;

/// A server over a two-tree corpus ("small", "big"), torn down in
/// order.  Options default to generous limits; tests tighten the knob
/// they exercise.
class ServeTest : public ::testing::Test {
 protected:
  void SetUp() override {
    FailpointRegistry::Global().DisableAll();
    MetricsRegistry::Global().ResetForTest();
  }

  void TearDown() override {
    if (server_) {
      server_->BeginDrain();
      server_->AwaitTermination();
    }
    FailpointRegistry::Global().DisableAll();
  }

  void StartServer(ServerOptions options) {
    corpus_ = std::make_unique<ResidentTreeCache>(0);
    ASSERT_TRUE(corpus_
                    ->GetOrLoad("small",
                                [] { return ParseTerm("a(b(c), d[x=1])"); })
                    .ok());
    ASSERT_TRUE(corpus_
                    ->GetOrLoad("big",
                                []() -> Result<Tree> {
                                  // ~65k nodes: a full DFS holds a
                                  // worker for many milliseconds, which
                                  // the drain tests rely on.
                                  return Result<Tree>(FullTree(2, 15));
                                })
                    .ok());
    server_ = std::make_unique<QueryServer>(options, corpus_.get());
    ASSERT_TRUE(server_->Start().ok());
    ASSERT_GT(server_->port(), 0);
  }

  /// Scoped client connection.
  struct Client {
    int fd = -1;
    explicit Client(int port) : fd(Connect(port)) {}
    ~Client() {
      if (fd >= 0) close(fd);
    }
  };

  ErrorMsg ExpectError(const std::string& request) {
    Client client(server_->port());
    EXPECT_GE(client.fd, 0);
    MessageType type;
    std::string body;
    EXPECT_TRUE(Exchange(client.fd, request, type, body));
    EXPECT_EQ(type, MessageType::kError);
    Result<ErrorMsg> error = DecodeError(body);
    EXPECT_TRUE(error.ok());
    return error.ok() ? *error : ErrorMsg{};
  }

  StatsMap FetchStats() {
    Client client(server_->port());
    EXPECT_GE(client.fd, 0);
    MessageType type;
    std::string body;
    EXPECT_TRUE(Exchange(client.fd, EncodeFrame(MessageType::kStats, ""), type,
                         body));
    EXPECT_EQ(type, MessageType::kStatsResult);
    Result<StatsMap> stats = DecodeStats(body);
    EXPECT_TRUE(stats.ok());
    return stats.ok() ? *stats : StatsMap{};
  }

  void ExpectBooksReconcile() {
    const ServerCounters& c = server_->counters();
    EXPECT_EQ(c.requests_admitted.load(),
              c.served_ok.load() + c.served_error.load() + c.drained.load());
  }

  std::unique_ptr<ResidentTreeCache> corpus_;
  std::unique_ptr<QueryServer> server_;
};

TEST_F(ServeTest, StartsAndDrainsWithoutTraffic) {
  StartServer({});
  server_->BeginDrain();
  EXPECT_TRUE(server_->draining());
  server_->AwaitTermination();
  server_.reset();
}

TEST_F(ServeTest, PingStatsAndMetricsAnswerOnOneConnection) {
  StartServer({});
  Client client(server_->port());
  ASSERT_GE(client.fd, 0);

  MessageType type;
  std::string body;
  ASSERT_TRUE(
      Exchange(client.fd, EncodeFrame(MessageType::kPing, ""), type, body));
  EXPECT_EQ(type, MessageType::kPong);
  EXPECT_TRUE(body.empty());

  ASSERT_TRUE(
      Exchange(client.fd, EncodeFrame(MessageType::kStats, ""), type, body));
  ASSERT_EQ(type, MessageType::kStatsResult);
  Result<StatsMap> stats = DecodeStats(body);
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats->Value("server.pings"), 1);
  EXPECT_EQ(stats->Value("server.open_connections"), 1);
  EXPECT_EQ(stats->Value("corpus.resident_trees"), 2);
  EXPECT_GT(stats->Value("corpus.resident_bytes"), 0);
  EXPECT_EQ(stats->Value("server.draining"), 0);

  ASSERT_TRUE(Exchange(client.fd, EncodeFrame(MessageType::kMetrics, ""),
                       type, body));
  EXPECT_EQ(type, MessageType::kMetricsResult);
  EXPECT_NE(body.find("treewalk_server_connections_total"),
            std::string::npos);
  EXPECT_EQ(server_->counters().pings.load(), 1);
  EXPECT_EQ(server_->counters().stats_requests.load(), 1);
}

TEST_F(ServeTest, QueryVerdictsMatchTheDirectInterpreter) {
  StartServer({});
  std::shared_ptr<const ResidentTreeCache::Prepared> tree =
      corpus_->Lookup("small");
  ASSERT_NE(tree, nullptr);

  for (const char* text : {kAcceptAllProgram, kScanProgram}) {
    Program program = std::move(ParseProgramText(text)).value();
    RunResult direct =
        std::move(Interpreter(program).RunDelimited(tree->delimited)).value();

    Client client(server_->port());
    ASSERT_GE(client.fd, 0);
    MessageType type;
    std::string body;
    ASSERT_TRUE(Exchange(client.fd, QueryFrame("small", text), type, body));
    ASSERT_EQ(type, MessageType::kQueryResult) << text;
    Result<QueryResultMsg> result = DecodeQueryResult(body);
    ASSERT_TRUE(result.ok());
    EXPECT_EQ(result->accepted, direct.accepted) << text;
    EXPECT_EQ(result->steps, direct.stats.steps) << text;
    EXPECT_EQ(result->atp_calls, direct.stats.atp_calls) << text;
    EXPECT_EQ(result->attempts, 1u);
  }
  EXPECT_EQ(server_->counters().served_ok.load(), 2);
  ExpectBooksReconcile();
}

TEST_F(ServeTest, SequentialQueriesReuseOneConnection) {
  StartServer({});
  Client client(server_->port());
  ASSERT_GE(client.fd, 0);
  for (int i = 0; i < 16; ++i) {
    MessageType type;
    std::string body;
    ASSERT_TRUE(Exchange(client.fd, QueryFrame("small", kAcceptAllProgram),
                         type, body))
        << i;
    ASSERT_EQ(type, MessageType::kQueryResult) << i;
    EXPECT_TRUE(DecodeQueryResult(body)->accepted);
  }
  EXPECT_EQ(server_->counters().served_ok.load(), 16);
  EXPECT_EQ(server_->counters().connections_accepted.load(), 1);
  ExpectBooksReconcile();
}

TEST_F(ServeTest, UnknownTreeIsTypedNotFound) {
  StartServer({});
  ErrorMsg error = ExpectError(QueryFrame("no-such-tree", kAcceptAllProgram));
  EXPECT_EQ(error.code, WireError::kNotFound);
  EXPECT_EQ(server_->counters().served_error.load(), 1);
  ExpectBooksReconcile();
}

TEST_F(ServeTest, UnparsableProgramIsTypedInvalidRequest) {
  StartServer({});
  ErrorMsg error = ExpectError(QueryFrame("small", "class bogus\n"));
  EXPECT_EQ(error.code, WireError::kInvalidRequest);
  EXPECT_EQ(server_->counters().served_error.load(), 1);
  ExpectBooksReconcile();
}

TEST_F(ServeTest, TinyDeadlineIsTypedDeadlineExceeded) {
  ServerOptions options;
  options.max_deadline_ms = 10000;
  StartServer(options);
  // A full scan of the 65k-node tree cannot finish in 1 ms.
  ErrorMsg error = ExpectError(QueryFrame("big", kScanProgram, 1));
  EXPECT_EQ(error.code, WireError::kDeadlineExceeded);
  EXPECT_EQ(server_->counters().served_error.load(), 1);
  ExpectBooksReconcile();
}

/// kScanProgram with a guard on every rule that quantifies twice over
/// the 40 values X1 starts with: each step checks 1,600 value pairs,
/// and a scan of "big" takes ~229k steps, so however fast the walk
/// gets, a run holds its worker far past a 10 ms drain grace and past
/// anything a test does meanwhile; the tests end it by draining.
std::string GuardedScanProgram() {
  std::string init = "init X1 {";
  for (int v = 1; v <= 40; ++v) init += " (" + std::to_string(v) + ")";
  const std::string guard =
      " [forall u forall v ((X1(u) | !(X1(u))) & (X1(v) | !(X1(v))))] ";
  return "class twr\nstates fwd qf\nregister X1 1\n" + init + " }\n" +
         "rule needle fwd [true] move stay qf\n" +
         "rule #top fwd" + guard + "move down fwd\n" +
         "rule #open fwd" + guard + "move right fwd\n" +
         "rule * fwd" + guard + "move down fwd\n" +
         "rule #leaf fwd" + guard + "move up back\n" +
         "rule #close fwd" + guard + "move up back\n" +
         "rule * back" + guard + "move right fwd\n";
}

TEST_F(ServeTest, FullQueueShedsWithTypedOverloaded) {
  ServerOptions options;
  options.max_queue = 1;  // one slot: a scan that never ends in time
  options.num_workers = 1;
  options.default_deadline_ms = 60000;
  options.max_deadline_ms = 60000;
  options.drain_deadline_ms = 10;
  StartServer(options);

  const std::string scan = GuardedScanProgram();
  std::thread slow([this, &scan] {
    Client client(server_->port());
    if (client.fd < 0) return;
    MessageType type;
    std::string body;
    (void)Exchange(client.fd, QueryFrame("big", scan), type, body);
  });
  while (server_->counters().requests_admitted.load() < 1) {
    std::this_thread::yield();
  }

  // The slot is taken: the next query must shed, typed, immediately.
  ErrorMsg error = ExpectError(QueryFrame("small", kAcceptAllProgram));
  EXPECT_EQ(error.code, WireError::kOverloaded);
  EXPECT_EQ(server_->counters().shed_queue.load(), 1);
  EXPECT_EQ(server_->counters().requests_admitted.load(), 1);
  // The drain cancels the scan.
  server_->BeginDrain();
  server_->AwaitTermination();
  slow.join();
  EXPECT_EQ(server_->counters().drained.load(), 1);
  ExpectBooksReconcile();
}

TEST_F(ServeTest, MemoryHighWaterShedsWithTypedOverloaded) {
  ServerOptions options;
  options.memory_budget_bytes = 1;  // below one request's reservation
  StartServer(options);
  ErrorMsg error = ExpectError(QueryFrame("small", kAcceptAllProgram));
  EXPECT_EQ(error.code, WireError::kOverloaded);
  EXPECT_EQ(server_->counters().shed_memory.load(), 1);
  EXPECT_EQ(server_->counters().requests_admitted.load(), 0);
  ExpectBooksReconcile();
}

TEST_F(ServeTest, MalformedFramesAreTypedAndCounted) {
  StartServer({});
  {
    // A zero length prefix poisons the stream: typed error, then close.
    Client client(server_->port());
    ASSERT_GE(client.fd, 0);
    ASSERT_TRUE(WriteAll(client.fd, std::string(4, '\0')));
    MessageType type;
    std::string body;
    ASSERT_TRUE(ReadFrame(client.fd, type, body));
    ASSERT_EQ(type, MessageType::kError);
    EXPECT_EQ(DecodeError(body)->code, WireError::kInvalidRequest);
    EXPECT_FALSE(ReadFrame(client.fd, type, body));  // server closed
  }
  {
    // An oversized prefix is rejected before any allocation.
    Client client(server_->port());
    ASSERT_GE(client.fd, 0);
    ASSERT_TRUE(WriteAll(client.fd, std::string(4, '\xff')));
    MessageType type;
    std::string body;
    ASSERT_TRUE(ReadFrame(client.fd, type, body));
    EXPECT_EQ(type, MessageType::kError);
  }
  {
    // A well-framed but undecodable payload is recoverable: typed
    // error, connection stays usable.
    Client client(server_->port());
    ASSERT_GE(client.fd, 0);
    ASSERT_TRUE(WriteAll(client.fd, EncodeFrame(MessageType::kQuery, "xx")));
    MessageType type;
    std::string body;
    ASSERT_TRUE(ReadFrame(client.fd, type, body));
    ASSERT_EQ(type, MessageType::kError);
    EXPECT_EQ(DecodeError(body)->code, WireError::kInvalidRequest);
    ASSERT_TRUE(Exchange(client.fd, EncodeFrame(MessageType::kPing, ""), type,
                         body));
    EXPECT_EQ(type, MessageType::kPong);
  }
  EXPECT_GE(server_->counters().protocol_errors.load(), 3);
  EXPECT_EQ(server_->counters().requests_admitted.load(), 0);
}

TEST_F(ServeTest, ResponseTypeSentAsRequestIsRejected) {
  StartServer({});
  ErrorMsg error = ExpectError(EncodeFrame(MessageType::kPong, ""));
  EXPECT_EQ(error.code, WireError::kInvalidRequest);
  EXPECT_NE(error.message.find("sent as a request"), std::string::npos);
}

TEST_F(ServeTest, DrainingShedsNewQueriesWithTypedDraining) {
  StartServer({});
  Client client(server_->port());
  ASSERT_GE(client.fd, 0);
  // Exchange a ping first: connect() returning only proves the kernel
  // backlog took us, and a drain stops the accept loop — an
  // unaccepted connection would never be served.
  MessageType type;
  std::string body;
  ASSERT_TRUE(
      Exchange(client.fd, EncodeFrame(MessageType::kPing, ""), type, body));
  ASSERT_EQ(type, MessageType::kPong);
  server_->BeginDrain();
  ASSERT_TRUE(Exchange(client.fd, QueryFrame("small", kAcceptAllProgram), type,
                       body));
  ASSERT_EQ(type, MessageType::kError);
  EXPECT_EQ(DecodeError(body)->code, WireError::kDraining);
  EXPECT_EQ(server_->counters().shed_draining.load(), 1);
  EXPECT_EQ(server_->counters().requests_admitted.load(), 0);
  ExpectBooksReconcile();
}

TEST_F(ServeTest, DrainCancelsInFlightScansAndBooksReconcile) {
  ServerOptions options;
  options.num_workers = 1;  // serialize: most of the fleet stays queued
  options.drain_deadline_ms = 10;
  options.default_deadline_ms = 60000;
  options.max_deadline_ms = 60000;
  StartServer(options);

  constexpr int kFleet = 8;
  const std::string scan = GuardedScanProgram();
  std::atomic<int> cancelled{0}, finished{0}, lost{0};
  std::vector<std::thread> fleet;
  fleet.reserve(kFleet);
  for (int i = 0; i < kFleet; ++i) {
    fleet.emplace_back([this, &scan, &cancelled, &finished, &lost] {
      Client client(server_->port());
      if (client.fd < 0) {
        lost.fetch_add(1);
        return;
      }
      MessageType type;
      std::string body;
      if (!Exchange(client.fd, QueryFrame("big", scan), type, body)) {
        // The drain shut the socket before the response got out; the
        // server books the request anyway.
        lost.fetch_add(1);
        return;
      }
      if (type == MessageType::kError &&
          DecodeError(body)->code == WireError::kCancelled) {
        cancelled.fetch_add(1);
      } else {
        finished.fetch_add(1);
      }
    });
  }

  // Wait until the whole fleet is admitted, then pull the plug.
  while (server_->counters().requests_admitted.load() < kFleet) {
    std::this_thread::yield();
  }
  server_->BeginDrain();
  server_->AwaitTermination();
  for (std::thread& t : fleet) t.join();

  const ServerCounters& c = server_->counters();
  EXPECT_EQ(c.requests_admitted.load(), kFleet);
  EXPECT_EQ(c.requests_admitted.load(),
            c.served_ok.load() + c.served_error.load() + c.drained.load());
  // One worker over eight scans that each outlast the 10 ms grace:
  // stragglers must exist, so the cancel path must have fired.
  EXPECT_GT(c.drained.load(), 0);
  // Client-observed outcomes are a subset of the server's books (a
  // response can be lost to the final socket shutdown, never invented).
  EXPECT_EQ(finished.load() + cancelled.load() + lost.load(), kFleet);
  EXPECT_LE(cancelled.load(), c.drained.load());
  EXPECT_LE(finished.load(), c.served_ok.load() + c.served_error.load());
  server_.reset();
}

TEST_F(ServeTest, BeginDrainIsIdempotentAndStopsAccepting) {
  StartServer({});
  server_->BeginDrain();
  server_->BeginDrain();  // second call is a no-op
  server_->AwaitTermination();
  // The listener is gone: a fresh connect must fail (allow for the
  // kernel to finish tearing the socket down).
  int fd = Connect(server_->port());
  if (fd >= 0) {
    // Connected to a dead-but-lingering socket: any read must EOF.
    char byte;
    EXPECT_LE(recv(fd, &byte, 1, 0), 0);
    close(fd);
  }
  server_.reset();
}

// --- src/engine/shutdown: SIGHUP latching and re-entrant install ----------

TEST(GracefulShutdownTest, SighupLatchesReloadWithoutTerminating) {
  GracefulShutdown::ResetForTest();
  GracefulShutdown::Install();
  GracefulShutdown::Install();  // second user of the same process

  ASSERT_EQ(raise(SIGHUP), 0);
  EXPECT_EQ(GracefulShutdown::reload_requests(), 1);
  EXPECT_FALSE(GracefulShutdown::requested());

  // One user uninstalls; the remaining install keeps handlers live.
  GracefulShutdown::Uninstall();
  ASSERT_EQ(raise(SIGHUP), 0);
  EXPECT_EQ(GracefulShutdown::reload_requests(), 2);
  EXPECT_FALSE(GracefulShutdown::requested());

  GracefulShutdown::Uninstall();
  GracefulShutdown::Uninstall();  // over-uninstall must be a safe no-op
  GracefulShutdown::ResetForTest();
}

TEST(GracefulShutdownTest, FirstTermLatchesForAPollingDriver) {
  GracefulShutdown::ResetForTest();
  GracefulShutdown::Install();
  ASSERT_EQ(raise(SIGTERM), 0);
  EXPECT_TRUE(GracefulShutdown::requested());
  EXPECT_EQ(GracefulShutdown::signal_number(), SIGTERM);
  GracefulShutdown::Uninstall();
  GracefulShutdown::ResetForTest();
}

// --- subprocess end-to-end: the real twq binary drains with exit 75 -------

#if defined(TREEWALK_TWQ_PATH) && defined(TREEWALK_LOADGEN_PATH)
TEST(ServeSmokeTest, DaemonServesLoadAndExits75OnSigterm) {
  std::string command = std::string("sh ") + TREEWALK_SOURCE_DIR +
                        "/tools/serve_smoke.sh " + TREEWALK_TWQ_PATH + " " +
                        TREEWALK_LOADGEN_PATH + " 800 > /dev/null 2>&1";
  EXPECT_EQ(std::system(command.c_str()), 0);
}
#endif

#if defined(TREEWALK_TWQ_PATH)
/// A corpus that does not fit `--cache-budget-mb 1`: a.term and b.term
/// each take ~641 KiB and c.term ~161 KiB.  The preload admits a, then
/// refuses b (it would pass the budget) and still admits c, which fits
/// in what is left.  Every tree the log reports as loaded answers a
/// query; the skipped one is logged with its kResourceExhausted and
/// answers kNotFound.
TEST(ServeSmokeTest, CacheBudgetServesEveryLoadedTreeAndSkipsTheRest) {
  const Tree big = FullTree(2, 11);
  const Tree small = FullTree(2, 9);
  const std::int64_t big_bytes =
      ResidentTreeCache::ApproxTreeBytes(Delimit(big).tree);
  const std::int64_t small_bytes =
      ResidentTreeCache::ApproxTreeBytes(Delimit(small).tree);
  ASSERT_GT(2 * big_bytes, 1 << 20);
  ASSERT_LE(big_bytes + small_bytes, 1 << 20);

  // Kills the daemon and removes the workspace on every exit path.  The
  // read end of the daemon's stdout stays open until then: the drain
  // summary is written there at exit.
  struct Workspace {
    std::string dir = ::testing::TempDir() + "serve_budget_XXXXXX";
    pid_t daemon = -1;
    int stdout_fd = -1;
    ~Workspace() {
      if (daemon > 0) {
        kill(daemon, SIGKILL);
        waitpid(daemon, nullptr, 0);
      }
      if (stdout_fd >= 0) close(stdout_fd);
      std::system(("rm -rf '" + dir + "'").c_str());
    }
  } work;
  ASSERT_NE(mkdtemp(work.dir.data()), nullptr);
  const std::string corpus = work.dir + "/corpus";
  ASSERT_EQ(mkdir(corpus.c_str(), 0755), 0);
  std::ofstream(corpus + "/a.term") << PrintTerm(big) << "\n";
  std::ofstream(corpus + "/b.term") << PrintTerm(big) << "\n";
  std::ofstream(corpus + "/c.term") << PrintTerm(small) << "\n";
  const std::string log = work.dir + "/serve.err";

  int out[2];
  ASSERT_EQ(pipe(out), 0);
  work.stdout_fd = out[0];
  work.daemon = fork();
  ASSERT_GE(work.daemon, 0);
  if (work.daemon == 0) {
    // Child: stdout into the pipe, the log into a file.  No gtest here.
    dup2(out[1], STDOUT_FILENO);
    const int err = open(log.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
    if (err >= 0) dup2(err, STDERR_FILENO);
    close(out[0]);
    execl(TREEWALK_TWQ_PATH, TREEWALK_TWQ_PATH, "serve", corpus.c_str(),
          "--port", "0", "--workers", "1", "--cache-budget-mb", "1",
          static_cast<char*>(nullptr));
    _exit(127);
  }
  close(out[1]);

  // `listening on <host>:<port>` follows the preload; wait up to 30 s.
  std::string listening;
  pollfd ready{out[0], POLLIN, 0};
  while (listening.find('\n') == std::string::npos &&
         poll(&ready, 1, 30000) > 0) {
    char buffer[256];
    const ssize_t n = read(out[0], buffer, sizeof(buffer));
    if (n <= 0) break;
    listening.append(buffer, static_cast<std::size_t>(n));
  }
  ASSERT_EQ(listening.rfind("listening on ", 0), 0u) << listening;
  const int port = std::atoi(listening.c_str() + listening.rfind(':') + 1);

  // Log lines: "twq serve: loaded <name> (...)" and
  // "twq serve: skipping <name>: <status>".
  std::vector<std::string> loaded, skipped;
  std::ifstream in(log);
  for (std::string line; std::getline(in, line);) {
    std::istringstream words(line);
    std::string twq, serve, verb, name;
    words >> twq >> serve >> verb >> name;
    if (verb == "loaded") loaded.push_back(name);
    if (verb == "skipping") {
      skipped.push_back(name.substr(0, name.find(':')));
      EXPECT_NE(line.find("RESOURCE_EXHAUSTED"), std::string::npos) << line;
    }
  }
  EXPECT_EQ(loaded, (std::vector<std::string>{"a.term", "c.term"}));
  EXPECT_EQ(skipped, (std::vector<std::string>{"b.term"}));

  for (const std::string name : {"a.term", "b.term", "c.term"}) {
    const int fd = Connect(port);
    ASSERT_GE(fd, 0);
    MessageType type;
    std::string body;
    const bool exchanged =
        Exchange(fd, QueryFrame(name, kAcceptAllProgram), type, body);
    close(fd);
    ASSERT_TRUE(exchanged) << name;
    if (name == "b.term") {
      ASSERT_EQ(type, MessageType::kError);
      Result<ErrorMsg> error = DecodeError(body);
      ASSERT_TRUE(error.ok());
      EXPECT_EQ(error->code, WireError::kNotFound);
    } else {
      ASSERT_EQ(type, MessageType::kQueryResult) << name;
      Result<QueryResultMsg> result = DecodeQueryResult(body);
      ASSERT_TRUE(result.ok());
      EXPECT_TRUE(result->accepted) << name;
    }
  }

  kill(work.daemon, SIGTERM);
  int status = 0;
  ASSERT_EQ(waitpid(work.daemon, &status, 0), work.daemon);
  work.daemon = -1;
  EXPECT_TRUE(WIFEXITED(status) && WEXITSTATUS(status) == 75) << status;
}
#endif

}  // namespace
}  // namespace treewalk
