// Chaos suite for `twq serve` (ISSUE acceptance gate): a 64-connection
// fleet hammers an in-process QueryServer with a adversarial mix —
// valid queries, garbage bytes, oversized length prefixes, half-written
// frames, abrupt resets — while the failpoint sites
// server/{accept,read,write,dispatch} inject faults, and a SIGTERM
// lands mid-flight.  The server must neither crash nor hang nor send a
// wrong or undecodable answer, and after the drain its books must
// reconcile *exactly*:
//
//   admitted == served_ok + served_error + drained
//
// Runs under ASan (label asan-focus) and TSan (label threaded) in CI.

#include <gtest/gtest.h>

#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <csignal>
#include <cstdint>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "src/common/failpoint.h"
#include "src/common/metrics.h"
#include "src/engine/input_cache.h"
#include "src/engine/shutdown.h"
#include "src/server/frame.h"
#include "src/server/server.h"
#include "src/tree/generate.h"
#include "src/tree/term_io.h"
#include "tests/serve_test_util.h"

namespace treewalk {
namespace {

using serve_test::kAcceptAllProgram;
using serve_test::kScanProgram;
using serve_test::QueryFrame;
using serve_test::ReadFrame;
using serve_test::WriteAll;

constexpr int kFleet = 64;
constexpr auto kChaosDuration = std::chrono::milliseconds(400);

struct ClientTally {
  std::int64_t ok_accepted = 0;
  std::int64_t ok_rejected = 0;       // semantic REJECT (still served ok)
  std::int64_t engine_errors = 0;  // deadline/budget/not-found/rejected
  std::int64_t internal = 0;       // kInternal: engine fault OR injected
                                   // server/read|write boundary fault
  std::int64_t overloaded = 0;
  std::int64_t draining = 0;
  std::int64_t cancelled = 0;
  std::int64_t invalid = 0;           // typed replies to our own garbage
  std::int64_t pongs = 0;
  std::int64_t stats_ok = 0;
  std::int64_t transport_errors = 0;  // resets, EOFs, timeouts
  std::int64_t undecodable_frames = 0;  // must stay zero
  std::int64_t wrong_answers = 0;       // must stay zero
  std::int64_t queue_bound_violations = 0;  // must stay zero
};

/// xorshift64*: deterministic per-thread chaos schedule.
std::uint64_t NextRand(std::uint64_t& state) {
  state ^= state >> 12;
  state ^= state << 25;
  state ^= state >> 27;
  return state * 0x2545f4914f6cdd1dull;
}

int ConnectWithTimeout(int port) {
  int fd = serve_test::Connect(port);
  if (fd < 0) return fd;
  struct timeval tv = {};
  tv.tv_sec = 3;  // never let a chaos client hang on a dead read
  setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
  return fd;
}

class ServeChaosTest : public ::testing::Test {
 protected:
  void SetUp() override {
    FailpointRegistry::Global().DisableAll();
    MetricsRegistry::Global().ResetForTest();
  }
  void TearDown() override { FailpointRegistry::Global().DisableAll(); }
};

/// One chaos client: loops a randomized action mix until `stop`,
/// reconnecting after every transport error or deliberate reset.
void ChaosClient(int port, int seed, const ServerOptions& options,
                 const std::atomic<bool>& stop, ClientTally& tally) {
  std::uint64_t rng = 0x9e3779b97f4a7c15ull * static_cast<std::uint64_t>(
                                                  seed + 1);
  int fd = -1;
  auto reset = [&fd] {
    if (fd >= 0) close(fd);
    fd = -1;
  };
  while (!stop.load(std::memory_order_acquire)) {
    if (fd < 0) {
      fd = ConnectWithTimeout(port);
      if (fd < 0) {
        // Accept backlog full, connection cap hit, or listener gone
        // (drain): back off and retry until told to stop.
        ++tally.transport_errors;
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
        continue;
      }
    }

    std::uint64_t roll = NextRand(rng) % 100;
    if (roll < 55) {
      // Valid query; tiny deadlines are part of the chaos.
      const bool scan = (NextRand(rng) % 4) == 0;
      const char* tree = (NextRand(rng) % 3) ? "small" : "mid";
      std::uint32_t deadline_ms =
          (NextRand(rng) % 8) ? 0 : static_cast<std::uint32_t>(1);
      std::string request =
          QueryFrame(tree, scan ? kScanProgram : kAcceptAllProgram,
                     deadline_ms);
      MessageType type;
      std::string body;
      if (!WriteAll(fd, request) || !ReadFrame(fd, type, body)) {
        ++tally.transport_errors;
        reset();
        continue;
      }
      if (type == MessageType::kQueryResult) {
        Result<QueryResultMsg> result = DecodeQueryResult(body);
        if (!result.ok()) {
          ++tally.undecodable_frames;
        } else if (scan ? result->accepted : !result->accepted) {
          // accept-all must accept; the needle scan must reject.
          ++tally.wrong_answers;
        } else {
          ++(result->accepted ? tally.ok_accepted : tally.ok_rejected);
        }
      } else if (type == MessageType::kError) {
        Result<ErrorMsg> error = DecodeError(body);
        if (!error.ok()) {
          ++tally.undecodable_frames;
        } else {
          switch (error->code) {
            case WireError::kOverloaded: ++tally.overloaded; break;
            case WireError::kDraining: ++tally.draining; break;
            case WireError::kCancelled: ++tally.cancelled; break;
            case WireError::kInvalidRequest: ++tally.invalid; break;
            case WireError::kInternal: ++tally.internal; break;
            default: ++tally.engine_errors; break;
          }
        }
      } else {
        ++tally.undecodable_frames;  // a non-response to a query
      }
    } else if (roll < 65) {
      MessageType type;
      std::string body;
      if (!WriteAll(fd, EncodeFrame(MessageType::kPing, "")) ||
          !ReadFrame(fd, type, body)) {
        ++tally.transport_errors;
        reset();
      } else if (type == MessageType::kPong) {
        ++tally.pongs;
      } else if (type == MessageType::kError && DecodeError(body).ok()) {
        ++tally.internal;  // injected server/read boundary fault
        reset();           // the server closes after an injected fault
      } else {
        ++tally.undecodable_frames;
      }
    } else if (roll < 72) {
      MessageType type;
      std::string body;
      if (!WriteAll(fd, EncodeFrame(MessageType::kStats, "")) ||
          !ReadFrame(fd, type, body)) {
        ++tally.transport_errors;
        reset();
        continue;
      }
      if (type == MessageType::kError && DecodeError(body).ok()) {
        ++tally.internal;  // injected server/read boundary fault
        reset();
        continue;
      }
      Result<StatsMap> stats = DecodeStats(body);
      if (type != MessageType::kStatsResult || !stats.ok()) {
        ++tally.undecodable_frames;
        continue;
      }
      ++tally.stats_ok;
      // Live invariant: admission is bounded.  The gauge may transiently
      // overshoot max_queue by the number of connection threads caught
      // mid-shed (each bumps, observes, undoes), so the hard bound is
      // max_queue + max_connections; beyond that the admission gate has
      // a hole.
      if (stats->Value("server.inflight") >
          options.max_queue + options.max_connections) {
        ++tally.queue_bound_violations;
      }
    } else if (roll < 80) {
      // Garbage bytes (possibly a plausible length prefix).  Usually
      // reset immediately — the classic misbehaving client.
      std::string garbage(1 + NextRand(rng) % 8, '\0');
      for (char& c : garbage) c = static_cast<char>(NextRand(rng) & 0xff);
      (void)WriteAll(fd, garbage);
      if (NextRand(rng) % 2) {
        reset();
      } else {
        MessageType type;
        std::string body;
        if (ReadFrame(fd, type, body)) {
          if (type != MessageType::kError) ++tally.undecodable_frames;
        } else {
          ++tally.transport_errors;
        }
        reset();  // the stream is poisoned either way
      }
    } else if (roll < 88) {
      // Oversized length prefix: must come back typed, pre-allocation.
      MessageType type;
      std::string body;
      if (!WriteAll(fd, std::string(4, '\xff')) ||
          !ReadFrame(fd, type, body)) {
        ++tally.transport_errors;
      } else if (type != MessageType::kError) {
        ++tally.undecodable_frames;
      }
      reset();
    } else {
      // Half-written frame, then a hard reset mid-message.
      std::string request = QueryFrame("small", kAcceptAllProgram);
      (void)WriteAll(fd, request.substr(0, 4 + request.size() % 7));
      reset();
    }
  }
  reset();
}

TEST_F(ServeChaosTest, FleetSurvivesChaosAndBooksReconcileExactly) {
  auto corpus = std::make_shared<ResidentTreeCache>(0);
  ASSERT_TRUE(corpus
                  ->GetOrLoad("small",
                              [] {
                                return ResidentTreeCache::DelimitSource(
                                    ParseTerm("a(b(c), d[x=1])"));
                              })
                  .ok());
  ASSERT_TRUE(corpus
                  ->GetOrLoad("mid",
                              [] {
                                return ResidentTreeCache::DelimitSource(
                                    FullTree(2, 9));
                              })
                  .ok());

  ServerOptions options;
  options.num_workers = 4;
  options.max_queue = 16;
  options.max_connections = kFleet + 16;
  options.io_timeout_ms = 500;  // reap poisoned streams quickly
  options.default_deadline_ms = 2000;
  options.drain_deadline_ms = 100;
  auto server = std::make_unique<QueryServer>(options, corpus);
  ASSERT_TRUE(server->Start().ok());

  // Deterministic fault schedule at every server boundary: each site
  // fires a handful of times, then service continues.
  for (const char* site :
       {"server/accept", "server/read", "server/write", "server/dispatch"}) {
    FailpointRegistry::Config config;
    config.code = StatusCode::kInternal;
    config.message = "chaos";
    config.after = 3;
    config.max_fires = 5;
    FailpointRegistry::Global().Enable(site, config);
  }

  std::atomic<bool> stop{false};
  std::vector<ClientTally> tallies(kFleet);
  std::vector<std::thread> fleet;
  fleet.reserve(kFleet);
  for (int i = 0; i < kFleet; ++i) {
    fleet.emplace_back(ChaosClient, server->port(), i, std::cref(options),
                       std::cref(stop), std::ref(tallies[i]));
  }

  std::this_thread::sleep_for(kChaosDuration);

  // Mid-request SIGTERM, exactly as the twq driver handles it: the
  // latched flag triggers a drain while the fleet is still sending.
  GracefulShutdown::ResetForTest();
  GracefulShutdown::Install();
  ASSERT_EQ(raise(SIGTERM), 0);
  ASSERT_TRUE(GracefulShutdown::requested());
  server->BeginDrain();
  server->AwaitTermination();
  GracefulShutdown::Uninstall();
  GracefulShutdown::ResetForTest();

  stop.store(true, std::memory_order_release);
  for (std::thread& t : fleet) t.join();

  ClientTally total;
  for (const ClientTally& t : tallies) {
    total.ok_accepted += t.ok_accepted;
    total.ok_rejected += t.ok_rejected;
    total.engine_errors += t.engine_errors;
    total.internal += t.internal;
    total.overloaded += t.overloaded;
    total.draining += t.draining;
    total.cancelled += t.cancelled;
    total.invalid += t.invalid;
    total.pongs += t.pongs;
    total.stats_ok += t.stats_ok;
    total.transport_errors += t.transport_errors;
    total.undecodable_frames += t.undecodable_frames;
    total.wrong_answers += t.wrong_answers;
    total.queue_bound_violations += t.queue_bound_violations;
  }

  // Hard correctness gates.
  EXPECT_EQ(total.undecodable_frames, 0);
  EXPECT_EQ(total.wrong_answers, 0);
  EXPECT_EQ(total.queue_bound_violations, 0);

  // The fleet did real work through the chaos.
  EXPECT_GT(total.ok_accepted, 0);
  EXPECT_GT(total.pongs, 0);

  // Exactly-once accounting: the books reconcile to the last request,
  // and the clients never observed more outcomes than the server booked.
  const ServerCounters& c = server->counters();
  EXPECT_EQ(c.requests_admitted.load(),
            c.served_ok.load() + c.served_error.load() + c.drained.load());
  EXPECT_LE(total.ok_accepted + total.ok_rejected, c.served_ok.load());
  // kInternal replies can also be injected server/read|write boundary
  // faults, which are (correctly) not booked as served — so only the
  // unambiguous engine-error codes bound served_error from below.
  EXPECT_LE(total.engine_errors, c.served_error.load());
  EXPECT_LE(total.cancelled, c.drained.load());
  // Accept-time rejections (capacity, injected server/accept faults)
  // also answer kOverloaded but are booked as rejected connections.
  EXPECT_LE(total.overloaded, c.shed_queue.load() + c.shed_memory.load() +
                                  c.connections_rejected.load());
  // Likewise a connection accepted after the drain flag flips gets a
  // best-effort kDraining at accept time, booked as a rejected
  // connection rather than a shed request.
  EXPECT_LE(total.draining,
            c.shed_draining.load() + c.connections_rejected.load());

  // The injected read/write/dispatch faults and the garbage all landed
  // somewhere visible.
  EXPECT_GT(c.protocol_errors.load(), 0);
  EXPECT_GT(c.connections_accepted.load(), 0);

  server.reset();
}

}  // namespace
}  // namespace treewalk
