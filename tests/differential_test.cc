// Differential oracles from the paper's own equivalences, promoted to
// tier-1 tests: Theorem 7.1(2)'s configuration-graph evaluator must
// agree with the direct interpreter on every program, and the Lemma 4.5
// protocol verdict must agree with the direct tw^{r,l} verdict on split
// strings.  Random inputs; every assertion names its seed so a failure
// reproduces.

#include <gtest/gtest.h>

#include <random>
#include <vector>

#include "src/automata/interpreter.h"
#include "src/automata/library.h"
#include "src/hyperset/hyperset.h"
#include "src/protocol/protocol.h"
#include "src/simulation/config_graph.h"
#include "src/tree/generate.h"
#include "src/tree/term_io.h"

namespace treewalk {
namespace {

constexpr DataValue kHash = -1;

std::vector<Program> LibraryPrograms() {
  std::vector<Program> programs;
  programs.push_back(std::move(HasLabelProgram("a")).value());
  programs.push_back(std::move(HasLabelProgram("missing")).value());
  programs.push_back(std::move(ParityProgram("a")).value());
  programs.push_back(std::move(AllLeavesLabelProgram("a")).value());
  programs.push_back(std::move(RootValueAtSomeLeafProgram("a")).value());
  programs.push_back(std::move(Example32Program("a")).value());
  return programs;
}

/// Direct interpreter vs. memoizing configuration-graph evaluation
/// (Thm 7.1(2)) on random attributed trees, for every library program
/// that is meaningful on a generic alphabet.
TEST(DifferentialOracle, ConfigGraphAgreesWithInterpreterOnRandomTrees) {
  std::vector<Program> programs = LibraryPrograms();
  RandomTreeOptions options;
  options.labels = {"a", "b", "sigma", "delta"};
  options.attributes = {"a"};
  options.value_range = 3;
  for (unsigned seed = 0; seed < 12; ++seed) {
    std::mt19937 rng(seed);
    options.num_nodes = 4 + static_cast<int>(seed) * 2;
    Tree t = RandomTree(rng, options);
    for (std::size_t pi = 0; pi < programs.size(); ++pi) {
      Interpreter interpreter(programs[pi]);
      auto direct = interpreter.Run(t);
      auto graph = EvaluateViaConfigGraph(programs[pi], t);
      ASSERT_TRUE(direct.ok()) << "seed " << seed << " program " << pi << ": "
                               << direct.status();
      ASSERT_TRUE(graph.ok()) << "seed " << seed << " program " << pi << ": "
                              << graph.status();
      EXPECT_EQ(direct->accepted, graph->accepted)
          << "seed " << seed << " program " << pi;
    }
  }
}

/// Same oracle on the Example 3.2 workload generator, which drives the
/// accept and reject paths by construction.
TEST(DifferentialOracle, ConfigGraphAgreesOnExample32Workload) {
  Program p = std::move(Example32Program("a")).value();
  for (unsigned seed = 100; seed < 112; ++seed) {
    std::mt19937 rng(seed);
    bool uniform = seed % 2 == 0;
    Tree t = Example32Tree(rng, 30, uniform);
    Interpreter interpreter(p);
    auto direct = interpreter.Run(t);
    auto graph = EvaluateViaConfigGraph(p, t);
    ASSERT_TRUE(direct.ok()) << "seed " << seed << ": " << direct.status();
    ASSERT_TRUE(graph.ok()) << "seed " << seed << ": " << graph.status();
    EXPECT_EQ(direct->accepted, uniform) << "seed " << seed;
    EXPECT_EQ(graph->accepted, uniform) << "seed " << seed;
  }
}

/// The compiled set-at-a-time selector evaluator must be semantically
/// invisible: with it on and off (the pure reference interpreter) every
/// program x random tree gives the same verdict, reason, and step count,
/// so this is a differential run of compiled against reference at the
/// whole-interpreter level.
TEST(DifferentialOracle, CompiledSelectorsAreSemanticallyInvisible) {
  std::vector<Program> programs = LibraryPrograms();
  RandomTreeOptions options;
  options.labels = {"a", "sigma", "delta"};
  options.attributes = {"a"};
  for (unsigned seed = 70; seed < 82; ++seed) {
    std::mt19937 rng(seed);
    options.num_nodes = 6 + static_cast<int>(seed % 5) * 4;
    Tree t = RandomTree(rng, options);
    for (std::size_t pi = 0; pi < programs.size(); ++pi) {
      RunOptions reference;
      reference.compile_selectors = false;
      auto compiled = Interpreter(programs[pi]).Run(t);
      auto plain = Interpreter(programs[pi], reference).Run(t);
      ASSERT_TRUE(compiled.ok() && plain.ok())
          << "seed " << seed << " program " << pi;
      EXPECT_EQ(compiled->accepted, plain->accepted)
          << "seed " << seed << " program " << pi;
      EXPECT_EQ(compiled->reason, plain->reason)
          << "seed " << seed << " program " << pi;
      EXPECT_EQ(compiled->stats.steps, plain->stats.steps)
          << "seed " << seed << " program " << pi;
      // With compilation off, no compiled evaluations may be counted.
      EXPECT_EQ(plain->stats.compiled_selector_evals, 0);
    }
  }
}

/// Lemma 4.5: the two-party protocol verdict equals the direct
/// tw^{r,l} verdict on the split string f#g — for the walking
/// set-equality program and its look-ahead variant.
TEST(DifferentialOracle, ProtocolVerdictAgreesWithDirectVerdict) {
  std::vector<Program> programs;
  programs.push_back(std::move(SetEqualityProgram(kHash)).value());
  programs.push_back(
      std::move(SetEqualityViaLookaheadProgram(kHash)).value());
  for (unsigned seed = 0; seed < 25; ++seed) {
    std::mt19937 rng(seed);
    std::uniform_int_distribution<DataValue> value(5, 8);
    std::uniform_int_distribution<int> len(0, 4);
    std::vector<DataValue> f(static_cast<std::size_t>(len(rng)));
    std::vector<DataValue> g(static_cast<std::size_t>(len(rng)));
    for (auto& v : f) v = value(rng);
    for (auto& v : g) v = value(rng);
    Tree t = StringTree(SplitString(f, g, kHash));
    for (std::size_t pi = 0; pi < programs.size(); ++pi) {
      auto protocol = RunSplitProtocol(programs[pi], f, g, kHash);
      auto direct = Interpreter(programs[pi]).Run(t);
      ASSERT_TRUE(protocol.ok())
          << "seed " << seed << " program " << pi << ": " << protocol.status();
      ASSERT_TRUE(direct.ok())
          << "seed " << seed << " program " << pi << ": " << direct.status();
      EXPECT_EQ(protocol->accepted, direct->accepted)
          << "seed " << seed << " program " << pi;
    }
  }
}

}  // namespace
}  // namespace treewalk
