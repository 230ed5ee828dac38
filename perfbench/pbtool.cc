// pbtool — the compiled half of the end-to-end benchmark (perfbench/run.py
// is the other half).  Subcommands:
//
//   pbtool info
//       Build provenance: compiler, build type, whether optimized.
//   pbtool gen <cli_run|batch_mixed|serve_mixed> <seed> <dir>
//       Writes the workload's seeded inputs (trees as .twsnap, programs as
//       .twp, manifests, serve schedule) under <dir>.  Same seed, same
//       bytes.
//   pbtool oracle <pairs.tsv> <out.tsv>
//       Answer oracle: for each "<program>\t<tree>" line, the verdict,
//       step count and atp count of an in-process Interpreter run, plus
//       the navigation ground truth for the chain selector.  Exits 3 on a
//       ground-truth mismatch.
//   pbtool client <port> <schedule.tsv> <rate> <open_s> <closed_s>
//          <daemon_pid> <reload_every_ms> <out.tsv>
//       The serve load: two connections, one QueryClient each, retries
//       off.  An open loop at <rate> queries/s (SIGHUP to the daemon every
//       <reload_every_ms>), then a closed loop.
//   pbtool replay <workload> <ops.tsv> <seconds> <spans.jsonl>
//       The traced replay: re-executes the workload's operations
//       in-process, recording a span around each call into a layer's
//       public function, and prints the per-layer metrics as one JSON
//       line.  Ops alternate traced and untraced so the difference of the
//       two is the tracing overhead.

#include <signal.h>
#include <sys/stat.h>
#include <sys/types.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <memory>
#include <optional>
#include <random>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "src/automata/interpreter.h"
#include "src/automata/text_format.h"
#include "src/client/client.h"
#include "src/common/governor.h"
#include "src/common/metrics.h"
#include "src/engine/engine.h"
#include "src/logic/compile.h"
#include "src/logic/planner.h"
#include "src/logic/selector_cache.h"
#include "src/logic/tree_eval.h"
#include "src/tree/axis_index.h"
#include "src/tree/delimited.h"
#include "src/tree/generate.h"
#include "src/tree/snapshot.h"
#include "src/tree/term_io.h"
#include "src/tree/tree_stats.h"

namespace tw = treewalk;

namespace {

using Clock = std::chrono::steady_clock;

// --- Selectors and programs ----------------------------------------------
//
// The quantifier-depth-2 selectors of bench/bench_selectors.cc in the
// prenex FO(exists*) form atp() requires (Section 2.3), the acyclic
// conjunctive look-ahead of the ROADMAP's seeded-evaluation item, and two
// one-off templates for serve traffic.  bench_selectors' guarded_forall
// has a universal, which no atp() selector may; `kGuarded` keeps its
// desc-then-E guard with label tests instead, and guards x with root(x)
// so its .twsel entry holds one row (without it, loading the entry of a
// desc-based selector costs ~0.5 s at n = 10^5 and would swamp cli_run).
// Every atp program asks its selector once, from #top (the root of
// delim(t)), and accepts at each selected node, so its step count is
// 2 + |selected|.
constexpr const char* kChain = "exists z exists w (E(x, z) & E(z, w) & E(w, y))";
constexpr const char* kNested =
    "exists z exists w (E(x, z) & E(z, w) & desc(w, y))";
constexpr const char* kGuarded =
    "exists z (root(x) & desc(x, z) & E(z, y) & lab(z, a) & lab(y, b))";
constexpr const char* kDescLookahead =
    "exists z (desc(x, y) & lab(y, a) & E(y, z) & lab(z, b))";

std::string AtpProgram(const std::string& selector) {
  return "class twrl\nstates q0 qf\nregister X1 1\n"
         "rule #top q0 [true] atp X1 \"" +
         selector +
         "\" qs q1\n"
         "rule * qs [true] move stay qf\n"
         "rule #top q1 [true] move stay qf\n";
}

// Walk-only: a full depth-first traversal looking for a label no tree
// has, so it always walks all of delim(t) and rejects.
constexpr const char* kWalkProgram =
    "class tw\nstates fwd qf\n"
    "rule needle fwd [true] move stay qf\n"
    "rule #top fwd [true] move down fwd\n"
    "rule #open fwd [true] move right fwd\n"
    "rule * fwd [true] move down fwd\n"
    "rule #leaf fwd [true] move up back\n"
    "rule #close fwd [true] move up back\n"
    "rule * back [true] move right fwd\n";

// The paper's Example 3.2 (examples/programs/example32.twp).
constexpr const char* kExample32Program =
    "class twrl\nstates q0 qf\nregister X1 1\n"
    "rule #top q0 [true] atp X1 \"desc(x, y) & lab(y, delta)\" q2 q1\n"
    "rule #top q1 [true] move stay qf\n"
    "rule delta q2 [true] atp X1 \"exists z (desc(x, y) & E(y, z) & "
    "lab(z, #leaf))\" q4 q3\n"
    "rule delta q3 [forall u forall v (X1(u) & X1(v) -> u = v)] move stay "
    "qf\n"
    "rule delta q4 [true] update X1(u) \"u = attr(a)\" q5\n"
    "rule sigma q4 [true] update X1(u) \"u = attr(a)\" q5\n"
    "rule * q5 [true] move stay qf\n";

// --- Small utilities -----------------------------------------------------

[[noreturn]] void Die(const std::string& message) {
  std::fprintf(stderr, "pbtool: %s\n", message.c_str());
  std::exit(1);
}

std::string ReadFileOrDie(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) Die("cannot read '" + path + "'");
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

void WriteFileOrDie(const std::string& path, const std::string& content) {
  std::ofstream out(path, std::ios::binary);
  out << content;
  out.flush();
  if (!out) Die("cannot write '" + path + "'");
}

void MakeDir(const std::string& dir) { ::mkdir(dir.c_str(), 0777); }

std::vector<std::vector<std::string>> ReadTsv(const std::string& path) {
  std::vector<std::vector<std::string>> rows;
  std::istringstream in(ReadFileOrDie(path));
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    std::vector<std::string> cols;
    std::size_t start = 0;
    while (true) {
      std::size_t tab = line.find('\t', start);
      cols.push_back(line.substr(start, tab - start));
      if (tab == std::string::npos) break;
      start = tab + 1;
    }
    rows.push_back(std::move(cols));
  }
  return rows;
}

// splitmix64: derives independent generator seeds from the workload seed.
std::uint32_t DeriveSeed(std::uint64_t seed, std::uint64_t stream) {
  std::uint64_t z = seed * 0x9e3779b97f4a7c15ULL + stream + 1;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return static_cast<std::uint32_t>(z ^ (z >> 31));
}

tw::Tree RandomLabeledTree(std::uint64_t seed, std::uint64_t stream, int n,
                           std::vector<std::string> attributes = {}) {
  std::mt19937 rng(DeriveSeed(seed, stream));
  tw::RandomTreeOptions options;
  options.num_nodes = n;
  options.labels = {"a", "b"};
  options.attributes = std::move(attributes);
  options.value_range = 256;
  return tw::RandomTree(rng, options);
}

void WriteSnapshotOrDie(const tw::Tree& tree, const std::string& path) {
  auto info = tw::WriteTreeSnapshot(tree, path);
  if (!info.ok()) Die("snapshot " + path + ": " + info.status().ToString());
}

double MsSince(Clock::time_point start) {
  return std::chrono::duration<double, std::milli>(Clock::now() - start)
      .count();
}

std::string JsonNumber(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.6g", v);
  return buf;
}

// --- pbtool info ---------------------------------------------------------

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

int CmdInfo() {
#ifdef __OPTIMIZE__
  const bool optimized = true;
#else
  const bool optimized = false;
#endif
  std::printf("{\"compiler\": \"%s\", \"build_type\": \"%s\", "
              "\"optimized\": %s}\n",
              __VERSION__, PERFBENCH_BUILD_TYPE, optimized ? "true" : "false");
  return 0;
}

// --- pbtool gen ----------------------------------------------------------

void GenCliRun(std::uint64_t seed, const std::string& dir) {
  // Input(n) of bench/bench_selectors.cc at n = 10^5, drawn from the seed.
  WriteSnapshotOrDie(RandomLabeledTree(seed, 0, 100000), dir + "/tree.twsnap");
  WriteFileOrDie(dir + "/chain.twp", AtpProgram(kChain));
  WriteFileOrDie(dir + "/guarded.twp", AtpProgram(kGuarded));
  WriteFileOrDie(dir + "/walk.twp", kWalkProgram);
  // Changed trees for the reload path (text, so the reload pays the
  // snapshot build as a user would).  run.py cycles through them.
  for (int k = 0; k < 3; ++k) {
    WriteFileOrDie(dir + "/reload_" + std::to_string(k) + ".term",
                   tw::PrintTerm(RandomLabeledTree(seed, 100 + k, 100000)));
  }
}

// One batch corpus tree: kind 0 = RandomTree, 1 = XmlLikeTree,
// 2 = Example32Tree (uniform on even sizes index, poisoned on odd).
tw::Tree BatchTree(std::uint64_t seed, std::uint64_t stream, int kind, int n,
                   bool uniform) {
  if (kind == 0) return RandomLabeledTree(seed, stream, n);
  std::mt19937 rng(DeriveSeed(seed, stream));
  if (kind == 1) return tw::XmlLikeTree(rng, n);
  return tw::Example32Tree(rng, n, uniform);
}

void GenBatchMixed(std::uint64_t seed, const std::string& dir) {
  const std::vector<std::pair<std::string, std::string>> programs = {
      {"chain", AtpProgram(kChain)},
      {"nested", AtpProgram(kNested)},
      {"guarded", AtpProgram(kGuarded)},
      {"desc_lookahead", AtpProgram(kDescLookahead)},
      {"example32", kExample32Program},
      {"walk", kWalkProgram}};
  for (const auto& [name, text] : programs) {
    WriteFileOrDie(dir + "/" + name + ".twp", text);
  }
  // 8 sizes x 3 kinds; the sizes straddle the planner's dense/interval
  // crossover (512-4096 delimited nodes and beyond).
  const int sizes[] = {500, 900, 1500, 2500, 4000, 6000, 9000, 12000};
  const char* kinds[] = {"rand", "xml", "ex32"};
  std::string manifest;
  MakeDir(dir + "/trees");
  for (int kind = 0; kind < 3; ++kind) {
    for (int i = 0; i < 8; ++i) {
      const std::string path = dir + "/trees/" + kinds[kind] + "_" +
                               std::to_string(sizes[i]) + ".twsnap";
      WriteSnapshotOrDie(
          BatchTree(seed, kind * 16 + i, kind, sizes[i], i % 2 == 0), path);
      for (const auto& program : programs) {
        manifest += dir + "/" + program.first + ".twp " + path + "\n";
      }
    }
  }
  WriteFileOrDie(dir + "/manifest.txt", manifest);
  // Changed trees for the reload path, all of one kind and size so their
  // median is not a pick between clusters.
  for (int k = 0; k < 8; ++k) {
    WriteFileOrDie(dir + "/reload_" + std::to_string(k) + ".term",
                   tw::PrintTerm(RandomLabeledTree(seed, 100 + k, 4000)));
  }
}

void GenServeMixed(std::uint64_t seed, const std::string& dir) {
  const int sizes[] = {1000, 5000, 10000};
  MakeDir(dir + "/corpus");
  std::vector<std::string> trees;
  for (int i = 0; i < 3; ++i) {
    const std::string name = "rand_" + std::to_string(sizes[i]) + ".twsnap";
    WriteSnapshotOrDie(RandomLabeledTree(seed, i, sizes[i], {"a"}),
                       dir + "/corpus/" + name);
    trees.push_back(name);
  }
  WriteFileOrDie(dir + "/chain.twp", AtpProgram(kChain));
  WriteFileOrDie(dir + "/nested.twp", AtpProgram(kNested));
  WriteFileOrDie(dir + "/guarded.twp", AtpProgram(kGuarded));
  WriteFileOrDie(dir + "/walk.twp", kWalkProgram);

  // The fixed handful of repeated (program, tree) pairs.  Chain and
  // nested on the 10^3-node tree are left out: the planner picks dense
  // there and each costs ~0.3 s, which would cap the daemon at a few
  // queries per second (batch_mixed covers that range).
  const std::vector<std::pair<std::string, std::string>> repeated = {
      {"chain.twp", trees[2]},
      {"chain.twp", trees[1]},
      {"guarded.twp", trees[0]},
      {"guarded.twp", trees[1]}};
  // One-off pool: two selector templates x 256 attribute constants on the
  // 10^4-node tree, shuffled by the seed and drawn without replacement, so
  // no (program, tree) pair repeats.
  std::mt19937 rng(DeriveSeed(seed, 1000));
  std::vector<int> values[2];
  for (auto& v : values) {
    for (int k = 0; k < 256; ++k) v.push_back(k);
    std::shuffle(v.begin(), v.end(), rng);
  }
  MakeDir(dir + "/oneoff");

  // Traffic comes in cycles of 20 queries in seeded order: 12 repeated (3
  // per pair), 4 walk-only, 4 one-offs (2 per template).  Exact shares keep
  // the latency percentiles off cluster edges: the slower one-off template
  // is 10% of traffic, so p95 falls inside its cluster.
  std::string schedule;
  int oneoffs = 0;
  int used[2] = {0, 0};
  // 125 cycles use 250 constants per template and outlast any run; the
  // client stops on time, not on length.
  for (int cycle = 0; cycle < 125; ++cycle) {
    std::vector<int> slots(20);
    for (int s = 0; s < 20; ++s) slots[s] = s;
    std::shuffle(slots.begin(), slots.end(), rng);
    for (int s : slots) {
      if (s < 12) {
        const auto& [program, tree] = repeated[s % repeated.size()];
        schedule += "repeated\t" + program + "\t" + tree + "\n";
      } else if (s < 16) {
        schedule += "walk\twalk.twp\t" + trees[s % 3] + "\n";
      } else {
        const int shape = s % 2;
        const std::string k = std::to_string(values[shape][used[shape]++]);
        const std::string selector =
            shape == 0
                ? "exists z exists w (E(x, z) & E(z, w) & E(w, y) & "
                  "val(a, y) = " + k + ")"
                : "exists z (desc(x, z) & E(z, y) & val(a, z) = " + k + ")";
        const std::string program =
            "oneoff/o" + std::to_string(oneoffs++) + ".twp";
        WriteFileOrDie(dir + "/" + program, AtpProgram(selector));
        schedule += "oneoff\t" + program + "\t" + trees[2] + "\n";
      }
    }
  }
  WriteFileOrDie(dir + "/schedule.tsv", schedule);
}

int CmdGen(int argc, char** argv) {
  if (argc != 3) Die("usage: pbtool gen <workload> <seed> <dir>");
  const std::string workload = argv[0];
  const std::uint64_t seed = std::strtoull(argv[1], nullptr, 10);
  const std::string dir = argv[2];
  MakeDir(dir);
  if (workload == "cli_run") {
    GenCliRun(seed, dir);
  } else if (workload == "batch_mixed") {
    GenBatchMixed(seed, dir);
  } else if (workload == "serve_mixed") {
    GenServeMixed(seed, dir);
  } else {
    Die("unknown workload '" + workload + "'");
  }
  return 0;
}

// --- pbtool oracle -------------------------------------------------------

tw::Tree LoadTreeOrDie(const std::string& path) {
  auto tree = path.size() > 7 && path.compare(path.size() - 7, 7, ".twsnap") == 0
                  ? tw::LoadTreeSnapshot(path)
                  : tw::ParseTerm(ReadFileOrDie(path));
  if (!tree.ok()) Die("tree " + path + ": " + tree.status().ToString());
  return std::move(tree).value();
}

tw::Program ParseProgramOrDie(const std::string& path) {
  auto program = tw::ParseProgramText(ReadFileOrDie(path));
  if (!program.ok()) Die("program " + path + ": " + program.status().ToString());
  return std::move(program).value();
}

// Navigation ground truth for kChain from #top: the great-grandchildren
// of the root of delim(t).
std::int64_t ChainTruth(const tw::Tree& delimited) {
  std::int64_t count = 0;
  const tw::NodeId root = delimited.root();
  for (tw::NodeId z = delimited.FirstChild(root); z != tw::kNoNode;
       z = delimited.NextSibling(z)) {
    for (tw::NodeId w = delimited.FirstChild(z); w != tw::kNoNode;
         w = delimited.NextSibling(w)) {
      for (tw::NodeId y = delimited.FirstChild(w); y != tw::kNoNode;
           y = delimited.NextSibling(y)) {
        ++count;
      }
    }
  }
  return count;
}

int CmdOracle(int argc, char** argv) {
  if (argc != 2) Die("usage: pbtool oracle <pairs.tsv> <out.tsv>");
  const std::string chain_text = AtpProgram(kChain);
  std::map<std::string, tw::DelimitedTree> trees;
  std::string out;
  for (const auto& row : ReadTsv(argv[0])) {
    if (row.size() < 2) Die("malformed pairs line");
    const std::string& program_path = row[0];
    const std::string& tree_path = row[1];
    auto it = trees.find(tree_path);
    if (it == trees.end()) {
      it = trees.emplace(tree_path, tw::Delimit(LoadTreeOrDie(tree_path)))
               .first;
    }
    const tw::Tree& delimited = it->second.tree;
    const std::string text = ReadFileOrDie(program_path);
    std::int64_t steps = 0;
    bool accepted = false;
    if (text == chain_text) {
      // The chain program's verdict follows from navigation alone; the
      // interpreter must agree with it.
      steps = 2 + ChainTruth(delimited);
      accepted = true;
    }
    tw::Program program = ParseProgramOrDie(program_path);
    auto run = tw::Interpreter(program).RunDelimited(delimited);
    if (!run.ok()) Die("oracle run " + program_path + ": " + run.status().ToString());
    if (text == chain_text &&
        (run->stats.steps != steps || run->accepted != accepted)) {
      std::fprintf(stderr,
                   "pbtool: chain ground truth %lld steps, interpreter %lld "
                   "on %s\n",
                   static_cast<long long>(steps),
                   static_cast<long long>(run->stats.steps), tree_path.c_str());
      return 3;
    }
    out += program_path + "\t" + tree_path + "\t" +
           (run->accepted ? "ACCEPT" : "REJECT") + "\t" +
           std::to_string(run->stats.steps) + "\t" +
           std::to_string(run->stats.atp_calls) + "\n";
  }
  WriteFileOrDie(argv[1], out);
  return 0;
}

// --- pbtool client -------------------------------------------------------

struct QueryRecord {
  int phase = 0;  // 0 = open loop, 1 = closed loop
  std::size_t index = 0;
  double due_ms = 0, send_ms = 0, done_ms = 0;
  bool ok = false;
  bool accepted = false;
  std::int64_t steps = 0;
  int attempts = 0;
  std::string error;
};

int CmdClient(int argc, char** argv) {
  if (argc != 8) {
    Die("usage: pbtool client <port> <schedule.tsv> <rate> <open_s> "
        "<closed_s> <daemon_pid> <reload_every_ms> <out.tsv>");
  }
  const int port = std::atoi(argv[0]);
  const std::string schedule_path = argv[1];
  const double rate = std::atof(argv[2]);
  const double open_s = std::atof(argv[3]);
  const double closed_s = std::atof(argv[4]);
  const pid_t daemon = static_cast<pid_t>(std::atoll(argv[5]));
  const int reload_every_ms = std::atoi(argv[6]);
  const std::string out_path = argv[7];
  const std::string base = schedule_path.substr(0, schedule_path.rfind('/') + 1);

  const auto schedule = ReadTsv(schedule_path);
  std::map<std::string, std::string> programs;
  for (const auto& row : schedule) {
    if (row.size() != 3) Die("malformed schedule line");
    if (programs.count(row[1]) == 0) {
      programs[row[1]] = ReadFileOrDie(base + row[1]);
    }
  }

  std::vector<QueryRecord> records(schedule.size());
  std::atomic<std::size_t> next{0};
  std::atomic<std::int64_t> attempts{0}, transport_errors{0};
  const Clock::time_point t0 = Clock::now() + std::chrono::milliseconds(50);
  const Clock::time_point open_end =
      t0 + std::chrono::microseconds(static_cast<std::int64_t>(open_s * 1e6));
  std::atomic<bool> open_done{false};
  std::atomic<int> open_workers{2};
  Clock::time_point closed_start{}, closed_end{};
  std::atomic<bool> closed_ready{false};
  auto ms_at = [&](Clock::time_point t) {
    return std::chrono::duration<double, std::milli>(t - t0).count();
  };

  auto worker = [&]() {
    tw::ClientOptions options;
    options.endpoint.port = port;
    options.retry.max_attempts = 1;
    options.io_timeout_ms = 30000;
    tw::QueryClient client(options);
    auto run_one = [&](std::size_t i, int phase, Clock::time_point due) {
      QueryRecord& r = records[i];
      r.phase = phase;
      r.index = i;
      r.due_ms = ms_at(due);
      r.send_ms = ms_at(Clock::now());
      tw::QueryOutcome outcome =
          client.Query(schedule[i][2], programs[schedule[i][1]]);
      r.done_ms = ms_at(Clock::now());
      r.ok = outcome.status.ok();
      r.accepted = outcome.result.accepted;
      r.steps = outcome.result.steps;
      r.attempts = outcome.attempts;
      if (!r.ok) r.error = outcome.status.ToString();
    };
    // Open loop: query i is due at t0 + i / rate whether or not earlier
    // ones have answered.
    while (true) {
      const std::size_t i = next.fetch_add(1);
      const Clock::time_point due =
          t0 + std::chrono::microseconds(
                   static_cast<std::int64_t>(1e6 * static_cast<double>(i) / rate));
      if (due >= open_end || i >= schedule.size()) {
        next.fetch_sub(1);
        break;
      }
      std::this_thread::sleep_until(due);
      run_one(i, 0, due);
    }
    // Closed loop: both connections back to back.
    if (open_workers.fetch_sub(1) == 1) {
      closed_start = Clock::now();
      closed_end = closed_start + std::chrono::microseconds(
                                      static_cast<std::int64_t>(closed_s * 1e6));
      open_done.store(true);
      closed_ready.store(true);
    }
    while (!closed_ready.load()) std::this_thread::sleep_for(std::chrono::microseconds(200));
    while (Clock::now() < closed_end) {
      const std::size_t i = next.fetch_add(1);
      if (i >= schedule.size()) break;
      run_one(i, 1, Clock::now());
    }
    attempts.fetch_add(client.counters().attempts.load());
    transport_errors.fetch_add(client.counters().transport_errors.load());
  };

  // Reloads fire during the open loop only.
  std::thread reloader([&]() {
    if (reload_every_ms <= 0) return;
    Clock::time_point at = t0 + std::chrono::milliseconds(reload_every_ms);
    while (at < open_end - std::chrono::milliseconds(500)) {
      while (Clock::now() < at) {
        if (open_done.load()) return;
        std::this_thread::sleep_for(std::chrono::milliseconds(5));
      }
      ::kill(daemon, SIGHUP);
      at += std::chrono::milliseconds(reload_every_ms);
    }
  });
  std::thread a(worker), b(worker);
  a.join();
  b.join();
  reloader.join();

  const std::size_t used = std::min(next.load(), schedule.size());
  std::string out = "# attempts=" + std::to_string(attempts.load()) +
                    " transport_errors=" + std::to_string(transport_errors.load()) +
                    " open_end_ms=" + JsonNumber(ms_at(open_end)) +
                    " closed_start_ms=" + JsonNumber(ms_at(closed_start)) +
                    " closed_end_ms=" + JsonNumber(ms_at(closed_end)) + "\n";
  for (std::size_t i = 0; i < used; ++i) {
    const QueryRecord& r = records[i];
    char line[256];
    std::snprintf(line, sizeof(line), "%d\t%zu\t%.4f\t%.4f\t%.4f\t%d\t%d\t%lld\t%d\t",
                  r.phase, r.index, r.due_ms, r.send_ms, r.done_ms, r.ok ? 1 : 0,
                  r.accepted ? 1 : 0, static_cast<long long>(r.steps),
                  r.attempts);
    out += line + schedule[i][0] + "\t" + schedule[i][1] + "\t" +
           schedule[i][2] + "\t" + r.error + "\n";
  }
  WriteFileOrDie(out_path, out);
  return 0;
}

// --- pbtool replay -------------------------------------------------------

// In-memory span recorder: name, start, end, parent and request id,
// written out once the replay ends.  Disabled, a Span costs one branch.
struct SpanRecord {
  const char* name;
  double start_us, end_us;
  int parent;
  std::int64_t request;
};

class Recorder {
 public:
  explicit Recorder(Clock::time_point epoch) : epoch_(epoch) {}
  bool enabled = false;
  std::int64_t request = 0;
  std::vector<SpanRecord> spans;
  int current = -1;

  double NowUs() const {
    return std::chrono::duration<double, std::micro>(Clock::now() - epoch_)
        .count();
  }

  // A finished leaf span, for a call whose name is known only once it
  // has returned.
  void Record(const char* name, double start_us, double end_us) {
    if (enabled) spans.push_back({name, start_us, end_us, current, request});
  }

 private:
  Clock::time_point epoch_;
};

class Span {
 public:
  Span(Recorder& rec, const char* name) : rec_(rec) {
    if (!rec_.enabled) return;
    index_ = static_cast<int>(rec_.spans.size());
    rec_.spans.push_back({name, rec_.NowUs(), 0.0, rec_.current, rec_.request});
    rec_.current = index_;
  }
  ~Span() {
    if (index_ < 0) return;
    rec_.spans[static_cast<std::size_t>(index_)].end_us = rec_.NowUs();
    rec_.current = rec_.spans[static_cast<std::size_t>(index_)].parent;
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  Recorder& rec_;
  int index_ = -1;
};

// Per-workload replay state: what one invocation of the real front end
// keeps between operations.
struct ReplayContext {
  std::string workload;
  std::map<std::string, tw::Tree> loaded;            // batch: per invocation
  std::map<std::string, tw::DelimitedTree> delimited;  // batch and serve
  std::map<std::string, tw::Program> parsed;         // batch: per invocation
  std::optional<tw::SelectorDiskCache> disk_cache;   // cli_run
};

struct OpCounts {
  tw::RunStats stats;
  std::int64_t retained_bytes = 0;
  std::int64_t twsel_hits = 0, twsel_misses = 0;
};

std::int64_t SelectorCacheCounter(const char* name) {
  return tw::MetricsRegistry::Global().Snapshot().Value(name);
}

// The interpreter's selector phase, replayed call by call on the same
// delimited tree: stats, plan, axis index, content hash, compile or
// .twsel load, row reads (or reference picks).  Origins are the nodes
// whose label the atp rule fires on, which for the benchmark's programs
// are exactly the origins the run asks from.
void ReplaySelectorPhase(Recorder& rec, const tw::Program& program,
                         const tw::Tree& delimited,
                         const tw::SelectorDiskCache* cache, OpCounts& counts) {
  std::map<std::string, std::pair<const tw::Formula*, std::string>> selectors;
  for (const tw::Rule& rule : program.rules()) {
    if (rule.action.kind != tw::Action::Kind::kLookAhead) continue;
    selectors.emplace(rule.action.selector.ToString(),
                      std::make_pair(&rule.action.selector, rule.label));
  }
  if (selectors.empty()) return;
  std::optional<tw::TreeStats> stats;
  std::optional<tw::AxisIndex> index;
  std::optional<std::uint64_t> hash;
  for (const auto& [text, entry] : selectors) {
    const tw::Formula& selector = *entry.first;
    std::vector<tw::NodeId> origins;
    for (tw::NodeId u = 0; u < static_cast<tw::NodeId>(delimited.size()); ++u) {
      if (entry.second == "*" ||
          delimited.LabelName(delimited.label(u)) == entry.second) {
        origins.push_back(u);
      }
    }
    if (!stats.has_value()) {
      Span span(rec, "tree.stats");
      tw::TreeStats scratch;
      stats = *tw::GetOrComputeTreeStats(delimited, scratch);
    }
    tw::SelectorPlan plan;
    {
      Span span(rec, "logic.plan");
      plan = tw::PlanSelector(*stats, selector);
    }
    if (plan.strategy == tw::PlanStrategy::kReference) {
      Span span(rec, "logic.reference_select");
      for (tw::NodeId origin : origins) (void)tw::SelectNodes(delimited, selector, origin);
      continue;
    }
    if (!index.has_value()) {
      Span span(rec, "tree.axis_index");
      index.emplace(delimited, nullptr);
    }
    if (cache != nullptr && !hash.has_value()) {
      Span span(rec, "tree.content_hash");
      hash = tw::TreeContentHash(delimited);
    }
    tw::Result<tw::CompiledSelector> compiled = tw::InvalidArgument("unset");
    if (cache != nullptr) {
      const std::int64_t hits_before =
          SelectorCacheCounter("treewalk_selector_cache_hits_total");
      const double start_us = rec.NowUs();
      compiled = tw::CompileSelectorCached(*index, selector, "x", "y",
                                           plan.repr, cache, *hash);
      const double end_us = rec.NowUs();
      const bool hit =
          SelectorCacheCounter("treewalk_selector_cache_hits_total") > hits_before;
      (hit ? counts.twsel_hits : counts.twsel_misses) += 1;
      rec.Record(hit ? "logic.twsel_load" : "logic.compile", start_us, end_us);
    } else {
      Span span(rec, "logic.compile");
      compiled = tw::CompileSelector(*index, selector, "x", "y", plan.repr);
    }
    if (!compiled.ok()) {
      Span span(rec, "logic.reference_select");
      for (tw::NodeId origin : origins) (void)tw::SelectNodes(delimited, selector, origin);
      continue;
    }
    counts.retained_bytes += compiled->RetainedBytes();
    Span span(rec, "logic.select_rows");
    for (tw::NodeId origin : origins) (void)compiled->SelectFrom(origin);
  }
}

const tw::Program& ParsedProgram(Recorder& rec, ReplayContext& ctx,
                                 const std::string& path, bool reuse,
                                 std::optional<tw::Program>& scratch) {
  if (reuse) {
    auto it = ctx.parsed.find(path);
    if (it != ctx.parsed.end()) return it->second;
  }
  const std::string text = ReadFileOrDie(path);
  tw::Result<tw::Program> program = tw::InvalidArgument("unset");
  {
    Span span(rec, "automata.parse_program");
    program = tw::ParseProgramText(text);
  }
  if (!program.ok()) Die("program " + path + ": " + program.status().ToString());
  if (!reuse) {
    scratch.emplace(std::move(program).value());
    return *scratch;
  }
  return ctx.parsed.emplace(path, std::move(program).value()).first->second;
}

const tw::Tree& DelimitedFor(Recorder& rec, ReplayContext& ctx,
                             const std::string& path) {
  auto it = ctx.delimited.find(path);
  if (it != ctx.delimited.end()) return it->second.tree;
  tw::Result<tw::Tree> tree = tw::InvalidArgument("unset");
  {
    Span span(rec, "tree.snapshot_load");
    tree = tw::LoadTreeSnapshot(path);
  }
  if (!tree.ok()) Die("tree " + path + ": " + tree.status().ToString());
  auto loaded = ctx.loaded.emplace(path, std::move(tree).value()).first;
  Span span(rec, "tree.delimit");
  return ctx.delimited.emplace(path, tw::Delimit(loaded->second))
      .first->second.tree;
}

// One operation of the workload, as the real front end performs it.
OpCounts ReplayOp(Recorder& rec, ReplayContext& ctx,
                  const std::string& program_path, const std::string& tree_path) {
  OpCounts counts;
  Span op(rec, "op");
  if (ctx.workload == "cli_run") {
    // One `twq run`: fresh process state every time.
    ctx.loaded.clear();
    ctx.delimited.clear();
    std::optional<tw::Program> scratch;
    const tw::Program& program =
        ParsedProgram(rec, ctx, program_path, false, scratch);
    const tw::Tree& delimited = DelimitedFor(rec, ctx, tree_path);
    tw::RunOptions options;
    options.selector_disk_cache = &*ctx.disk_cache;
    {
      Span span(rec, "automata.run");
      auto run = tw::Interpreter(program, options).RunDelimited(delimited);
      if (!run.ok()) Die("replay run: " + run.status().ToString());
      counts.stats = run->stats;
    }
    ReplaySelectorPhase(rec, program, delimited, &*ctx.disk_cache, counts);
    return counts;
  }
  std::optional<tw::Program> scratch;
  const bool batch = ctx.workload == "batch_mixed";
  const tw::Program& program =
      ParsedProgram(rec, ctx, program_path, batch, scratch);
  const tw::Tree& delimited = DelimitedFor(rec, ctx, tree_path);
  if (!batch) {
    // The daemon's path: RunResidentJob with its default request limits.
    tw::BatchJob job;
    job.program = &program;
    job.deadline_ms = 1000;
    job.memory_budget_bytes = 64ll << 20;
    std::atomic<bool> cancel{false};
    Span span(rec, "engine.resident_job");
    tw::JobResult result = tw::RunResidentJob(job, delimited, cancel);
    if (!result.status.ok()) Die("replay job: " + result.status.ToString());
  }
  {
    tw::ResourceGovernor governor;
    tw::RunOptions options;
    options.governor = &governor;
    Span span(rec, "automata.run");
    auto run = tw::Interpreter(program, options).RunDelimited(delimited);
    if (!run.ok()) Die("replay run: " + run.status().ToString());
    counts.stats = run->stats;
  }
  ReplaySelectorPhase(rec, program, delimited, nullptr, counts);
  return counts;
}

double Median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

int CmdReplay(int argc, char** argv) {
  if (argc != 4) Die("usage: pbtool replay <workload> <ops.tsv> <seconds> <spans.jsonl>");
  ReplayContext ctx;
  ctx.workload = argv[0];
  const auto ops = ReadTsv(argv[1]);
  const double seconds = std::atof(argv[2]);
  const std::string spans_path = argv[3];
  if (ops.empty()) Die("no operations to replay");
  if (ctx.workload == "cli_run") {
    if (ops[0].size() < 3) Die("cli_run ops need a compile-cache column");
    ctx.disk_cache.emplace(ops[0][2]);
  }

  Recorder rec(Clock::now());
  std::vector<double> traced_ms, untraced_ms;
  std::vector<OpCounts> counts;
  const Clock::time_point start = Clock::now();
  std::size_t i = 0;
  // Alternate traced and untraced executions of the same operations.  A
  // batch pass is one whole manifest (one `twq batch` invocation); the
  // other workloads alternate op by op, swapping parity every pass so
  // each op is seen both ways.
  const bool batch = ctx.workload == "batch_mixed";
  while (MsSince(start) < seconds * 1000.0 || i < 2 * ops.size()) {
    const std::size_t pass = i / ops.size();
    if (batch && i % ops.size() == 0) {
      ctx.loaded.clear();
      ctx.delimited.clear();
      ctx.parsed.clear();
    }
    const bool traced = (batch ? 0 : i % ops.size()) % 2 == pass % 2;
    const auto& op = ops[i % ops.size()];
    rec.enabled = traced;
    rec.request = static_cast<std::int64_t>(i);
    const Clock::time_point op_start = Clock::now();
    OpCounts c = ReplayOp(rec, ctx, op[0], op[1]);
    const double ms = MsSince(op_start);
    (traced ? traced_ms : untraced_ms).push_back(ms);
    if (traced) counts.push_back(c);
    ++i;
  }

  // Self time per span: duration minus the part its children cover
  // (children of one span never overlap: the replay is sequential).
  std::vector<double> child_us(rec.spans.size(), 0.0);
  for (const SpanRecord& s : rec.spans) {
    if (s.parent >= 0) {
      child_us[static_cast<std::size_t>(s.parent)] += s.end_us - s.start_us;
    }
  }
  // Per request: summed self time by span name.
  std::map<std::int64_t, std::map<std::string, double>> per_request;
  std::string jsonl;
  for (std::size_t k = 0; k < rec.spans.size(); ++k) {
    const SpanRecord& s = rec.spans[k];
    const double self = s.end_us - s.start_us - child_us[k];
    per_request[s.request][s.name] += self;
    jsonl += "{\"id\": " + std::to_string(k) + ", \"name\": \"" + s.name +
             "\", \"start_us\": " + JsonNumber(s.start_us) +
             ", \"end_us\": " + JsonNumber(s.end_us) +
             ", \"parent\": " + std::to_string(s.parent) +
             ", \"request\": " + std::to_string(s.request) +
             ", \"self_us\": " + JsonNumber(self) + "}\n";
  }
  WriteFileOrDie(spans_path, jsonl);

  auto layer = [&](const char* name, double scale) {
    std::vector<double> v;
    for (const auto& [req, names] : per_request) {
      auto it = names.find(name);
      if (it != names.end()) v.push_back(it->second * scale);
    }
    return Median(v);
  };
  // walk = run minus the selector phase replayed on the same tree.
  std::vector<double> walk;
  for (const auto& [req, names] : per_request) {
    auto run = names.find("automata.run");
    if (run == names.end()) continue;
    double selector = 0;
    for (const char* n : {"tree.stats", "logic.plan", "tree.axis_index",
                          "tree.content_hash", "logic.compile",
                          "logic.twsel_load", "logic.select_rows",
                          "logic.reference_select"}) {
      auto it = names.find(n);
      if (it != names.end()) selector += it->second;
    }
    walk.push_back((run->second - selector) / 1000.0);
  }
  double steps = 0, atp = 0, hits = 0, misses = 0, compiled = 0, retained = 0;
  double pick_ref = 0, pick_dense = 0, pick_interval = 0;
  for (const OpCounts& c : counts) {
    steps += static_cast<double>(c.stats.steps);
    atp += static_cast<double>(c.stats.atp_calls);
    hits += static_cast<double>(c.stats.selector_cache_hits);
    misses += static_cast<double>(c.stats.selector_cache_misses);
    compiled += static_cast<double>(c.stats.compiled_selector_evals);
    pick_ref += static_cast<double>(c.stats.planner_picks_reference);
    pick_dense += static_cast<double>(c.stats.planner_picks_dense);
    pick_interval += static_cast<double>(c.stats.planner_picks_interval);
    retained = std::max(retained, static_cast<double>(c.retained_bytes));
  }
  const double n_ops = std::max<double>(1.0, static_cast<double>(counts.size()));
  std::vector<std::pair<std::string, double>> metrics = {
      {"tree.snapshot_load_ms", layer("tree.snapshot_load", 1e-3)},
      {"tree.delimit_ms", layer("tree.delimit", 1e-3)},
      {"tree.content_hash_ms", layer("tree.content_hash", 1e-3)},
      {"tree.stats_ms", layer("tree.stats", 1e-3)},
      {"tree.axis_index_ms", layer("tree.axis_index", 1e-3)},
      {"logic.compile_ms", layer("logic.compile", 1e-3)},
      {"logic.twsel_load_ms", layer("logic.twsel_load", 1e-3)},
      {"logic.plan_us", layer("logic.plan", 1.0)},
      {"logic.select_rows_us", layer("logic.select_rows", 1.0)},
      {"logic.reference_select_ms", layer("logic.reference_select", 1e-3)},
      {"logic.planner_picks.reference", pick_ref / n_ops},
      {"logic.planner_picks.dense", pick_dense / n_ops},
      {"logic.planner_picks.interval", pick_interval / n_ops},
      {"logic.compiled_retained_mb", retained / (1024.0 * 1024.0)},
      {"automata.parse_program_us", layer("automata.parse_program", 1.0)},
      {"automata.run_ms", layer("automata.run", 1e-3)},
      {"automata.walk_ms", Median(walk)},
      {"automata.steps", steps / n_ops},
      {"automata.atp_calls", atp / n_ops},
      {"automata.selector_cache_hit_ratio",
       hits + misses > 0 ? hits / (hits + misses) : 0.0},
      {"automata.compiled_eval_ratio", misses > 0 ? compiled / misses : 0.0},
      {"engine.resident_job_ms", layer("engine.resident_job", 1e-3)},
      {"trace.overhead_ms", Median(traced_ms) - Median(untraced_ms)},
  };
  std::string json = "{";
  for (std::size_t k = 0; k < metrics.size(); ++k) {
    if (k > 0) json += ", ";
    json += "\"" + metrics[k].first + "\": " + JsonNumber(metrics[k].second);
  }
  std::printf("%s}\n", json.c_str());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) Die("usage: pbtool <info|gen|oracle|client|replay> ...");
  const std::string command = argv[1];
  if (command == "info") return CmdInfo();
  if (command == "gen") return CmdGen(argc - 2, argv + 2);
  if (command == "oracle") return CmdOracle(argc - 2, argv + 2);
  if (command == "client") return CmdClient(argc - 2, argv + 2);
  if (command == "replay") return CmdReplay(argc - 2, argv + 2);
  Die("unknown command '" + command + "'");
}
