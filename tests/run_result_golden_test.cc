// RunResult golden: pins complete interpreter runs — verdict, reject
// reason, every RunStats field, a digest of the trace, or an error's
// code and message — one line per run, against
// tests/golden/run_results.txt.
//
// The golden was produced by the interpreter whose cycle memo was an
// ordered set of (node, state string, store) copies and whose rule
// lookup scanned every rule with string keys, running on a Delimit()
// built through TreeBuilder.  The indexed step loop, the hashed memo
// and the one-pass Delimit() must reproduce it line for line, so a
// diff here is a semantic change, never a refactoring artifact.
//
// The runs cover the library programs; a store-toggle cycle (X := {1}
// then X := {} rejects with kCycle at step 2); wildcard shadowing;
// nondeterministic and overlapping guards; move-off-tree and stuck
// runs; tw^l discipline and max_depth errors; and the EXPTIME counter
// — on random, Example 3.2, path, circuit and split-string trees, with
// cycle detection on and off, traces on, tight step/trace budgets and
// the reference selector path.  On a mismatch the whole actual output
// is written next to the test's temp dir for inspection.

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <fstream>
#include <random>
#include <sstream>
#include <string>
#include <vector>

#include "src/automata/interpreter.h"
#include "src/automata/library.h"
#include "src/automata/text_format.h"
#include "src/tree/generate.h"
#include "src/tree/term_io.h"

#ifndef TREEWALK_SOURCE_DIR
#error "build must define TREEWALK_SOURCE_DIR"
#endif

namespace treewalk {
namespace {

struct NamedTree {
  std::string name;
  Tree tree;
};

struct NamedProgram {
  std::string name;
  Program program;
  /// Which tree family the program is meaningful on.
  enum class Family { kGeneric, kCircuit, kSplit, kCounter } family;
};

struct Variant {
  std::string name;
  RunOptions options;
};

Program FromText(const std::string& text) {
  Result<Program> p = ParseProgramText(text);
  EXPECT_TRUE(p.ok()) << p.status() << "\n" << text;
  return std::move(p).value();
}

// X := {1}, then X := {} at the same node: the third configuration
// repeats the first, so the run rejects with kCycle after 2 steps.
constexpr const char* kToggleCycle = R"twp(class twr
states q0 qf
register X1 1
rule #top q0 [true] update X1(u) "u = 1" q1
rule #top q1 [true] update X1(u) "false" q0
)twp";

// A walk that toggles X at every #open it passes and accepts at the
// first b-leaf; on trees without one it walks off the right end.
constexpr const char* kToggleWalk = R"twp(class twr
states fwd qf
register X1 1
rule #top fwd [true] move down fwd
rule #open fwd [X1(1)] update X1(u) "false" skip
rule #open fwd [!(X1(1))] update X1(u) "u = 1" skip
rule #open skip [true] move right fwd
rule b fwd [true] move down atb
rule #leaf atb [true] move stay qf
rule * atb [true] move up back
rule * fwd [true] move down fwd
rule #leaf fwd [true] move up back
rule #close fwd [true] move up back
rule * back [true] move right fwd
)twp";

// Wildcards shadowed per state: `*` in s is shadowed on #open and a,
// `*` in u only on b, and t has nothing but its wildcard.
constexpr const char* kShadowing = R"twp(class tw
states s qf
rule #top s [true] move down s
rule #open s [true] move right u
rule a s [true] move down s
rule * s [true] move right t
rule b u [true] move stay qf
rule * u [true] move down s
rule * t [true] move up t
rule #top t [true] move stay qf
)twp";

// Two wildcard guards that both hold at the root: kNondeterminism.
constexpr const char* kNondeterministic = R"twp(class twr
states q0 qf
register X1 1
rule #top q0 [true] update X1(u) "u = 1" q1
rule #top q1 [true] move down q2
rule #open q2 [true] move right q2
rule * q2 [exists u X1(u)] move down q2
rule * q2 [X1(1)] move stay qf
)twp";

// Guards that overlap only where attr(a) = 1; elsewhere the walk goes
// down until it leaves the tree below a #leaf.
constexpr const char* kOverlappingGuards = R"twp(class twr
states q0 qf
register X1 1
rule #top q0 [true] move down q1
rule #open q1 [true] move right q1
rule * q1 [attr(a) = 1] move stay qf
rule * q1 [attr(a) = 1 | attr(a) = 2] move down q1
rule * q1 [!(attr(a) = 1) & !(attr(a) = 2)] move down q1
)twp";

// A [true] guard beside a store guard for the same (label, state).
constexpr const char* kTrueBesideGuard = R"twp(class twr
states q0 qf
register X1 1
rule #top q0 [true] move down q1
rule #open q1 [true] move right q1
rule a q1 [true] update X1(u) "u = attr(a)" q2
rule a q2 [true] move stay qf
rule a q2 [X1(0)] move down q1
rule * q1 [true] move down q1
rule * q2 [true] move down q1
)twp";

constexpr const char* kMoveOffTree = R"twp(class tw
states q0 qf
rule #top q0 [true] move up qf
)twp";

constexpr const char* kStuck = R"twp(class tw
states q0 qf
rule #top q0 [true] move down q1
rule #open q1 [true] move right q2
)twp";

// A guard on an attribute the tree does not have: an error, not a
// verdict.
constexpr const char* kMissingAttribute = R"twp(class twr
states q0 qf
register X1 1
rule #top q0 [attr(zz) = 1] move stay qf
)twp";

// tw^l: the look-ahead from #top selects its three children.
constexpr const char* kTwlTooMany = R"twp(class twl
states q0 qf
register X1 1
rule #top q0 [true] atp X1 "E(x, y)" q1 qf
rule * q1 [true] move stay qf
)twp";

// One subcomputation per child, recursively: the atp nesting depth is
// the delimited tree's height.
constexpr const char* kNestedAtp = R"twp(class twrl
states q0 qf
register X1 1
rule * q0 [true] atp X1 "E(x, y)" q0 q1
rule * q1 [true] update X1(u) "u = attr(a)" q2
rule * q2 [true] move stay qf
)twp";

std::vector<NamedProgram> Programs() {
  using F = NamedProgram::Family;
  std::vector<NamedProgram> programs;
  auto add = [&](std::string name, Result<Program> p, F family) {
    EXPECT_TRUE(p.ok()) << name << ": " << p.status();
    programs.push_back({std::move(name), std::move(p).value(), family});
  };
  add("has_label_a", HasLabelProgram("a"), F::kGeneric);
  add("has_label_missing", HasLabelProgram("missing"), F::kGeneric);
  add("parity_a", ParityProgram("a"), F::kGeneric);
  add("all_leaves_a", AllLeavesLabelProgram("a"), F::kGeneric);
  add("root_value_at_leaf", RootValueAtSomeLeafProgram("a"), F::kGeneric);
  add("example32", Example32Program("a"), F::kGeneric);
  add("label_values_eq_root", AllLabelValuesEqualRootProgram("a", "a"),
      F::kGeneric);
  add("set_equality", SetEqualityProgram(9, "a"), F::kSplit);
  add("set_equality_atp", SetEqualityViaLookaheadProgram(9, "a"), F::kSplit);
  add("boolean_circuit", BooleanCircuitProgram("v"), F::kCircuit);
  add("exp_counter", ExponentialCounterProgram(), F::kCounter);
  add("toggle_cycle", FromText(kToggleCycle), F::kGeneric);
  add("toggle_walk", FromText(kToggleWalk), F::kGeneric);
  add("shadowing", FromText(kShadowing), F::kGeneric);
  add("nondeterministic", FromText(kNondeterministic), F::kGeneric);
  add("overlapping_guards", FromText(kOverlappingGuards), F::kGeneric);
  add("true_beside_guard", FromText(kTrueBesideGuard), F::kGeneric);
  add("move_off_tree", FromText(kMoveOffTree), F::kGeneric);
  add("stuck", FromText(kStuck), F::kGeneric);
  add("missing_attribute", FromText(kMissingAttribute), F::kGeneric);
  add("twl_too_many", FromText(kTwlTooMany), F::kGeneric);
  add("nested_atp", FromText(kNestedAtp), F::kGeneric);
  return programs;
}

Tree Path(int length) {
  TreeBuilder b;
  TreeBuilder::Ref r = b.AddRoot("a");
  b.SetAttr(r, "a", 0);
  for (int i = 1; i < length; ++i) {
    r = b.AddChild(r, i % 3 == 0 ? "b" : "a");
    b.SetAttr(r, "a", i % 3);
  }
  return b.Build();
}

std::vector<NamedTree> GenericTrees() {
  std::vector<NamedTree> trees;
  trees.push_back({"single", std::move(ParseTerm("a[a=1]")).value()});
  trees.push_back({"path7", Path(7)});
  trees.push_back({"path16", Path(16)});
  RandomTreeOptions options;
  options.labels = {"a", "b", "sigma", "delta"};
  options.attributes = {"a"};
  options.value_range = 3;
  for (unsigned seed = 1; seed <= 8; ++seed) {
    std::mt19937 rng(seed);
    options.num_nodes = 2 + static_cast<int>(seed) * 3;
    trees.push_back(
        {"random" + std::to_string(seed), RandomTree(rng, options)});
  }
  for (unsigned seed = 40; seed < 44; ++seed) {
    std::mt19937 rng(seed);
    const bool uniform = seed % 2 == 0;
    trees.push_back({std::string(uniform ? "ex32_uniform" : "ex32_poisoned") +
                         std::to_string(seed),
                     Example32Tree(rng, 12 + static_cast<int>(seed % 4) * 5,
                                   uniform)});
  }
  return trees;
}

std::vector<NamedTree> CircuitTrees() {
  std::vector<NamedTree> trees;
  for (const char* term :
       {"lit[v=1]", "and(lit[v=1], lit[v=0])",
        "or(and(lit[v=1], lit[v=1]), lit[v=0])",
        "and(or(lit[v=0], and(lit[v=1])), or(lit[v=1], lit[v=0]), lit[v=1])"}) {
    trees.push_back({"circuit" + std::to_string(trees.size()),
                     std::move(ParseTerm(term)).value()});
  }
  return trees;
}

std::vector<NamedTree> SplitTrees() {
  std::vector<NamedTree> trees;
  for (const std::vector<DataValue>& values :
       std::vector<std::vector<DataValue>>{{1, 2, 9, 2, 1},
                                           {1, 2, 9, 2, 3},
                                           {4, 9, 4, 4},
                                           {9},
                                           {1, 1, 2, 9, 2, 1, 1, 2}}) {
    trees.push_back({"split" + std::to_string(trees.size()),
                     StringTree(values)});
  }
  return trees;
}

std::vector<NamedTree> CounterTrees() {
  std::vector<NamedTree> trees;
  for (const char* term :
       {"a", "a(b)", "a(b, c)", "a(b(c), d)", "a(b(c), d(e, f))"}) {
    Tree t = std::move(ParseTerm(term)).value();
    AssignUniqueIds(t);
    trees.push_back({"ids" + std::to_string(t.size()), std::move(t)});
  }
  return trees;
}

std::vector<Variant> Variants() {
  std::vector<Variant> variants;
  variants.push_back({"default", RunOptions{}});
  RunOptions no_cycles;
  no_cycles.detect_cycles = false;
  no_cycles.max_steps = 20000;
  variants.push_back({"no_cycles", no_cycles});
  RunOptions traced;
  traced.record_trace = true;
  variants.push_back({"traced", traced});
  RunOptions tight;
  tight.record_trace = true;
  tight.max_trace_entries = 5;
  tight.max_steps = 40;
  tight.max_depth = 3;
  variants.push_back({"tight", tight});
  RunOptions reference;
  reference.compile_selectors = false;
  reference.record_trace = true;
  variants.push_back({"reference", reference});
  return variants;
}

std::uint64_t Fnv1a(const std::vector<std::string>& lines) {
  std::uint64_t h = 1469598103934665603ULL;
  for (const std::string& line : lines) {
    for (unsigned char c : line) {
      h ^= c;
      h *= 1099511628211ULL;
    }
    h ^= '\n';
    h *= 1099511628211ULL;
  }
  return h;
}

std::string Describe(const Result<RunResult>& run) {
  if (!run.ok()) return "ERROR " + run.status().ToString();
  const RunResult& r = run.value();
  const RunStats& s = r.stats;
  char digest[17];
  std::snprintf(digest, sizeof(digest), "%016llx",
                static_cast<unsigned long long>(Fnv1a(r.trace)));
  std::ostringstream out;
  out << (r.accepted ? "ACCEPT" : "REJECT") << " reason="
      << RejectReasonName(r.reason) << " steps=" << s.steps
      << " subs=" << s.subcomputations << " atp=" << s.atp_calls
      << " hits=" << s.selector_cache_hits
      << " misses=" << s.selector_cache_misses
      << " compiled=" << s.compiled_selector_evals
      << " picks=" << s.planner_picks_reference << "/"
      << s.planner_picks_dense << "/" << s.planner_picks_interval
      << " updates=" << s.store_updates << " tuples=" << s.max_store_tuples
      << " depth=" << s.max_depth_reached << " trace=" << r.trace.size()
      << ":" << digest;
  return out.str();
}

std::vector<std::string> AllRuns() {
  using F = NamedProgram::Family;
  const std::vector<NamedTree> generic = GenericTrees();
  const std::vector<NamedTree> circuit = CircuitTrees();
  const std::vector<NamedTree> split = SplitTrees();
  const std::vector<NamedTree> counter = CounterTrees();
  std::vector<std::string> lines;
  for (const NamedProgram& p : Programs()) {
    const std::vector<NamedTree>& trees =
        p.family == F::kCircuit ? circuit
        : p.family == F::kSplit ? split
        : p.family == F::kCounter ? counter
                                  : generic;
    for (const NamedTree& t : trees) {
      for (const Variant& v : Variants()) {
        Result<RunResult> run = Interpreter(p.program, v.options).Run(t.tree);
        lines.push_back(p.name + " " + t.name + " " + v.name + ": " +
                        Describe(run));
      }
    }
  }
  return lines;
}

std::vector<std::string> ReadLines(const std::string& path) {
  std::ifstream in(path);
  std::vector<std::string> lines;
  for (std::string line; std::getline(in, line);) lines.push_back(line);
  return lines;
}

TEST(RunResultGolden, EveryRunMatchesTheGoldenLine) {
  const std::vector<std::string> actual = AllRuns();
  const std::vector<std::string> golden = ReadLines(
      std::string(TREEWALK_SOURCE_DIR) + "/tests/golden/run_results.txt");
  int reported = 0;
  for (std::size_t i = 0; i < actual.size() && i < golden.size(); ++i) {
    if (actual[i] != golden[i] && reported++ < 10) {
      ADD_FAILURE() << "line " << i + 1 << "\n  golden: " << golden[i]
                    << "\n  actual: " << actual[i];
    }
  }
  EXPECT_EQ(actual.size(), golden.size());
  if (actual != golden) {
    const std::string path = ::testing::TempDir() + "run_results.actual";
    std::ofstream out(path);
    for (const std::string& line : actual) out << line << "\n";
    ADD_FAILURE() << "actual output written to " << path;
  }
}

/// The runs are pure functions of (program, tree, options).
TEST(RunResultGolden, RunsAreDeterministic) {
  EXPECT_EQ(AllRuns(), AllRuns());
}

}  // namespace
}  // namespace treewalk
