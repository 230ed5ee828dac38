// Saturation benchmark for `twq serve` (docs/SERVER.md): closed-loop
// loopback clients against an in-process QueryServer.
//
//   BM_ServeClosedLoop/T   T connections, ample queue — the throughput
//                          curve; items/s is served queries/s.
//   BM_ServeOverload/T     T connections against a 2-slot queue — the
//                          *bounded overload* story: time/op stays flat
//                          because excess load is shed with a typed
//                          kOverloaded instead of queueing without
//                          bound; the shed_ratio counter records how
//                          much was refused.
//
// tools/bench_gate.py compares BENCH_serve.json against the committed
// baseline; a latency collapse under overload (time/op blowing up at
// high thread counts) is exactly the regression the gate exists for.

#include <benchmark/benchmark.h>

#include <unistd.h>

#include <atomic>
#include <memory>
#include <string>

#include "src/engine/input_cache.h"
#include "src/server/frame.h"
#include "src/server/server.h"
#include "src/tree/term_io.h"
#include "tests/serve_test_util.h"

namespace {

using namespace treewalk;

struct ServerHandle {
  std::shared_ptr<ResidentTreeCache> corpus;
  std::unique_ptr<QueryServer> server;
  std::atomic<std::int64_t> shed{0};
  std::atomic<std::int64_t> served{0};

  explicit ServerHandle(ServerOptions options) {
    corpus = std::make_shared<ResidentTreeCache>(0);
    (void)corpus->GetOrLoad("small", [] {
      return ResidentTreeCache::DelimitSource(ParseTerm("a(b(c), d[x=1])"));
    });
    server = std::make_unique<QueryServer>(options, corpus);
    if (!server->Start().ok()) std::abort();
  }
  ~ServerHandle() {
    server->BeginDrain();
    server->AwaitTermination();
  }
};

/// Plenty of headroom: the closed-loop ceiling is the wire + dispatch
/// cost, not admission.
ServerHandle& AmpleServer() {
  static ServerHandle* handle = [] {
    ServerOptions options;
    options.num_workers = 4;
    options.max_queue = 256;
    options.max_connections = 256;
    return new ServerHandle(options);
  }();
  return *handle;
}

/// Deliberately tiny queue: most of a large fleet must shed.
ServerHandle& TinyQueueServer() {
  static ServerHandle* handle = [] {
    ServerOptions options;
    options.num_workers = 2;
    options.max_queue = 2;
    options.max_connections = 256;
    return new ServerHandle(options);
  }();
  return *handle;
}

void DriveClosedLoop(benchmark::State& state, ServerHandle& host) {
  int fd = serve_test::Connect(host.server->port());
  if (fd < 0) {
    state.SkipWithError("connect failed");
    return;
  }
  const std::string request =
      serve_test::QueryFrame("small", serve_test::kAcceptAllProgram);
  std::int64_t served = 0, shed = 0;
  for (auto _ : state) {
    MessageType type;
    std::string body;
    if (!serve_test::Exchange(fd, request, type, body)) {
      state.SkipWithError("exchange failed");
      break;
    }
    if (type == MessageType::kQueryResult) {
      ++served;
    } else {
      ++shed;  // typed kOverloaded: immediate, bounded
    }
  }
  close(fd);
  host.served.fetch_add(served);
  host.shed.fetch_add(shed);
  state.SetItemsProcessed(served + shed);
  if (state.thread_index() == 0) {
    const double total = static_cast<double>(host.served.load() +
                                             host.shed.load());
    state.counters["shed_ratio"] =
        total > 0 ? static_cast<double>(host.shed.load()) / total : 0.0;
    host.served.store(0);
    host.shed.store(0);
  }
}

void BM_ServeClosedLoop(benchmark::State& state) {
  DriveClosedLoop(state, AmpleServer());
}
BENCHMARK(BM_ServeClosedLoop)
    ->Threads(1)
    ->Threads(4)
    ->Threads(16)
    ->UseRealTime()
    ->Unit(benchmark::kMicrosecond);

void BM_ServeOverload(benchmark::State& state) {
  DriveClosedLoop(state, TinyQueueServer());
}
BENCHMARK(BM_ServeOverload)
    ->Threads(16)
    ->Threads(32)
    ->UseRealTime()
    ->Unit(benchmark::kMicrosecond);

}  // namespace
