// twq_loadgen — load generator and correctness probe for `twq serve`
// (docs/SERVER.md).
//
//   twq_loadgen --port P [--host H] [--connections N] [--duration-ms D]
//       --tree NAME [--program FILE | --program-text TEXT]
//       [--rate R] [--deadline-ms D] [--retries R] [--total-deadline-ms D]
//       [--io-timeout-ms T]
//       [--breaker-threshold N] [--breaker-cooldown-ms MS]
//       [--stats] [--expect-shed] [--quiet]
//
// Drives a fleet of N concurrent connections against a running daemon,
// each through its own resilient QueryClient (src/client) — the same
// retry/backoff/breaker machinery production callers get, so
// what this tool measures is the end-to-end behavior, not a bespoke
// socket loop's:
//
//   closed loop (default)  each connection sends its next query the
//                          moment the previous response lands — the
//                          classic saturation probe;
//   open loop (--rate R)   the fleet schedules arrivals at R requests/s
//                          regardless of response times, so queueing
//                          delay is visible instead of self-throttled.
//
// By default --retries is 0 and the breaker is off: every server
// verdict surfaces raw, exactly like the pre-client loadgen.  Turning
// the resilience knobs on makes the fleet ride through restarts — the
// kill-loop harness runs it with retries against a supervised daemon.
//
// Every outcome is classified (ok / overloaded / draining / quarantined
// / other typed error) and timed; the report prints throughput and
// latency percentiles of *admitted* requests next to the shed counts.
// With --stats, a final `stats` request verifies the server's books
// reconcile:
//
//   admitted == served_ok + served_error + drained
//
// and the tool exits nonzero when they do not, or when --expect-shed
// saw no load shedding (the saturation harness asserts both).

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "src/client/client.h"
#include "src/server/frame.h"

namespace tw = treewalk;

namespace {

using Clock = std::chrono::steady_clock;

constexpr const char* kDefaultProgram = R"twp(
# accept every tree
class tw
states q0 qf
rule #top q0 [true] move stay qf
)twp";

int Fail(const std::string& message) {
  std::fprintf(stderr, "twq_loadgen: %s\n", message.c_str());
  return 1;
}

struct WorkerTally {
  std::int64_t ok = 0;
  std::int64_t rejected = 0;  // program REJECT verdicts (still served ok)
  std::int64_t overloaded = 0;
  std::int64_t draining = 0;
  std::int64_t cancelled = 0;
  std::int64_t quarantined = 0;
  std::int64_t other_error = 0;
  std::int64_t transport_errors = 0;
  std::int64_t reconnects = 0;
  std::int64_t retries = 0;
  std::int64_t breaker_shed = 0;
  std::vector<double> latencies_ms;  // admitted (ok or typed engine error)
};

double Percentile(std::vector<double>& sorted, double p) {
  if (sorted.empty()) return 0;
  double rank = p * static_cast<double>(sorted.size() - 1);
  auto lo = static_cast<std::size_t>(rank);
  std::size_t hi = std::min(lo + 1, sorted.size() - 1);
  double frac = rank - static_cast<double>(lo);
  return sorted[lo] + (sorted[hi] - sorted[lo]) * frac;
}

}  // namespace

int main(int argc, char** argv) {
  tw::ClientOptions client_options;
  int connections = 4;
  long long duration_ms = 5000;
  std::string tree_name;
  std::string program_text = kDefaultProgram;
  double rate = 0;  // 0 = closed loop
  bool want_stats = false;
  bool expect_shed = false;
  bool quiet = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--host") == 0 && i + 1 < argc) {
      client_options.endpoint.host = argv[++i];
    } else if (std::strcmp(argv[i], "--port") == 0 && i + 1 < argc) {
      client_options.endpoint.port = std::atoi(argv[++i]);
    } else if (std::strcmp(argv[i], "--connections") == 0 && i + 1 < argc) {
      connections = std::atoi(argv[++i]);
    } else if (std::strcmp(argv[i], "--duration-ms") == 0 && i + 1 < argc) {
      duration_ms = std::atoll(argv[++i]);
    } else if (std::strcmp(argv[i], "--tree") == 0 && i + 1 < argc) {
      tree_name = argv[++i];
    } else if (std::strcmp(argv[i], "--program") == 0 && i + 1 < argc) {
      std::ifstream in(argv[++i]);
      if (!in) return Fail(std::string("cannot read program '") + argv[i] + "'");
      std::ostringstream buffer;
      buffer << in.rdbuf();
      program_text = buffer.str();
    } else if (std::strcmp(argv[i], "--program-text") == 0 && i + 1 < argc) {
      program_text = argv[++i];
    } else if (std::strcmp(argv[i], "--rate") == 0 && i + 1 < argc) {
      rate = std::atof(argv[++i]);
    } else if (std::strcmp(argv[i], "--deadline-ms") == 0 && i + 1 < argc) {
      client_options.request_deadline_ms = std::atoll(argv[++i]);
    } else if (std::strcmp(argv[i], "--io-timeout-ms") == 0 &&
               i + 1 < argc) {
      client_options.io_timeout_ms = std::atoll(argv[++i]);
    } else if (std::strcmp(argv[i], "--retries") == 0 && i + 1 < argc) {
      client_options.retry.max_attempts = std::atoi(argv[++i]) + 1;
    } else if (std::strcmp(argv[i], "--total-deadline-ms") == 0 &&
               i + 1 < argc) {
      client_options.total_deadline_ms = std::atoll(argv[++i]);
    } else if (std::strcmp(argv[i], "--breaker-threshold") == 0 &&
               i + 1 < argc) {
      client_options.breaker_threshold = std::atoi(argv[++i]);
    } else if (std::strcmp(argv[i], "--breaker-cooldown-ms") == 0 &&
               i + 1 < argc) {
      client_options.breaker_cooldown_ms = std::atoll(argv[++i]);
    } else if (std::strcmp(argv[i], "--stats") == 0) {
      want_stats = true;
    } else if (std::strcmp(argv[i], "--expect-shed") == 0) {
      expect_shed = true;
    } else if (std::strcmp(argv[i], "--quiet") == 0) {
      quiet = true;
    } else {
      return Fail(std::string("unknown option '") + argv[i] +
                  "' (see file header)");
    }
  }
  if (client_options.endpoint.port == 0) return Fail("--port is required");
  if (tree_name.empty()) return Fail("--tree is required");
  if (connections < 1) return Fail("--connections must be >= 1");

  const Clock::time_point start = Clock::now();
  const Clock::time_point stop =
      start + std::chrono::milliseconds(duration_ms);
  std::vector<WorkerTally> tallies(static_cast<std::size_t>(connections));
  std::vector<std::thread> fleet;
  fleet.reserve(static_cast<std::size_t>(connections));
  // Open loop: each of the N threads owns an arrival schedule of rate/N
  // requests per second, anchored at `start` — late responses do not
  // push later arrivals back, which is the whole point.
  const double per_thread_interval_ms =
      rate > 0 ? 1000.0 * connections / rate : 0;
  for (int t = 0; t < connections; ++t) {
    fleet.emplace_back([&, t]() {
      WorkerTally& tally = tallies[static_cast<std::size_t>(t)];
      tw::ClientOptions options = client_options;
      options.backoff_seed =
          0x6c6f6164ULL * static_cast<std::uint64_t>(t + 1) + 1;
      tw::QueryClient client(std::move(options));
      long long sent = 0;
      while (Clock::now() < stop) {
        if (rate > 0) {
          Clock::time_point next_arrival =
              start + std::chrono::milliseconds(static_cast<long long>(
                          per_thread_interval_ms * static_cast<double>(sent)));
          if (next_arrival >= stop) break;
          std::this_thread::sleep_until(next_arrival);
        }
        ++sent;
        Clock::time_point begin = Clock::now();
        tw::QueryOutcome outcome = client.Query(tree_name, program_text);
        double ms = std::chrono::duration_cast<
                        std::chrono::duration<double, std::milli>>(
                        Clock::now() - begin)
                        .count();
        if (outcome.status.ok()) {
          if (outcome.result.accepted) {
            ++tally.ok;
          } else {
            ++tally.rejected;
          }
          tally.latencies_ms.push_back(ms);
        } else if (outcome.has_wire_error) {
          switch (outcome.wire_error) {
            case tw::WireError::kOverloaded: ++tally.overloaded; break;
            case tw::WireError::kDraining: ++tally.draining; break;
            case tw::WireError::kCancelled: ++tally.cancelled; break;
            case tw::WireError::kQuarantined: ++tally.quarantined; break;
            default:
              ++tally.other_error;
              tally.latencies_ms.push_back(ms);  // admitted, ran, failed
          }
        } else {
          // Transport failure or client-side shed (breaker open, budget
          // exhausted); don't spin hot against a dead endpoint.
          ++tally.transport_errors;
          std::this_thread::sleep_for(std::chrono::milliseconds(10));
        }
      }
      const tw::ClientCounters& counters = client.counters();
      tally.reconnects = counters.reconnects.load();
      tally.retries = counters.retries.load();
      tally.breaker_shed = counters.breaker_shed.load();
    });
  }
  for (std::thread& worker : fleet) worker.join();
  double elapsed_s = std::chrono::duration_cast<
                         std::chrono::duration<double>>(Clock::now() - start)
                         .count();

  WorkerTally total;
  std::vector<double> latencies;
  for (WorkerTally& tally : tallies) {
    total.ok += tally.ok;
    total.rejected += tally.rejected;
    total.overloaded += tally.overloaded;
    total.draining += tally.draining;
    total.cancelled += tally.cancelled;
    total.quarantined += tally.quarantined;
    total.other_error += tally.other_error;
    total.transport_errors += tally.transport_errors;
    total.reconnects += tally.reconnects;
    total.retries += tally.retries;
    total.breaker_shed += tally.breaker_shed;
    latencies.insert(latencies.end(), tally.latencies_ms.begin(),
                     tally.latencies_ms.end());
  }
  std::sort(latencies.begin(), latencies.end());
  std::int64_t admitted_seen =
      static_cast<std::int64_t>(latencies.size()) + total.cancelled;
  std::printf("loadgen: %lld admitted (%.0f/s), %lld accept, %lld reject, "
              "%lld error; shed: %lld overloaded, %lld draining, "
              "%lld quarantined; %lld cancelled, %lld transport\n",
              static_cast<long long>(admitted_seen),
              static_cast<double>(admitted_seen) / std::max(elapsed_s, 1e-9),
              static_cast<long long>(total.ok),
              static_cast<long long>(total.rejected),
              static_cast<long long>(total.other_error),
              static_cast<long long>(total.overloaded),
              static_cast<long long>(total.draining),
              static_cast<long long>(total.quarantined),
              static_cast<long long>(total.cancelled),
              static_cast<long long>(total.transport_errors));
  if (total.retries + total.breaker_shed > 0) {
    std::printf("client: %lld retries, %lld breaker_shed, %lld reconnects\n",
                static_cast<long long>(total.retries),
                static_cast<long long>(total.breaker_shed),
                static_cast<long long>(total.reconnects));
  }
  std::printf("latency_ms: p50=%.2f p95=%.2f p99=%.2f max=%.2f (n=%zu)\n",
              Percentile(latencies, 0.50), Percentile(latencies, 0.95),
              Percentile(latencies, 0.99),
              latencies.empty() ? 0 : latencies.back(), latencies.size());

  int code = 0;
  if (expect_shed && total.overloaded == 0) {
    std::fprintf(stderr, "twq_loadgen: expected load shedding, saw none\n");
    code = 1;
  }
  if (want_stats) {
    tw::ClientOptions stats_options;
    stats_options.endpoint = client_options.endpoint;
    tw::QueryClient stats_client(std::move(stats_options));
    auto stats = stats_client.Stats();
    if (!stats.ok()) {
      // The server may already be draining/away; a missing stats
      // endpoint fails the run because the caller asked to reconcile.
      std::fprintf(stderr, "twq_loadgen: stats failed: %s\n",
                   stats.status().ToString().c_str());
      return 1;
    }
    if (!quiet) {
      for (const auto& [key, value] : stats.value().entries) {
        std::printf("stats: %s=%lld\n", key.c_str(),
                    static_cast<long long>(value));
      }
    }
    const tw::StatsMap& map = stats.value();
    std::int64_t admitted = map.Value("server.admitted");
    std::int64_t accounted = map.Value("server.served_ok") +
                             map.Value("server.served_error") +
                             map.Value("server.drained");
    if (admitted != accounted) {
      std::fprintf(stderr,
                   "twq_loadgen: RECONCILIATION FAILED: admitted=%lld != "
                   "ok+error+drained=%lld\n",
                   static_cast<long long>(admitted),
                   static_cast<long long>(accounted));
      return 1;
    }
    std::printf("reconciliation ok: admitted=%lld == ok+error+drained\n",
                static_cast<long long>(admitted));
  }
  return code;
}
