// Tests for the selector estimator behind `twq explain`
// (src/logic/planner.h), its tree-statistics substrate
// (src/tree/tree_stats.h), and the one rule that picks a selector's
// evaluator (src/logic/planned_selector.h): exact statistics on known
// trees, snapshot preloading, formula feature extraction, operator
// estimates, interpreter pick counters, and the headline differential
// oracle proving that PlannedSelector, the reference evaluator, the
// materialized compiled relation and seeded evaluation return exactly
// the same nodes on >= 500 random (formula, tree) instances.

#include <gtest/gtest.h>

#include <optional>
#include <random>
#include <string>
#include <vector>

#include "src/automata/interpreter.h"
#include "src/automata/library.h"
#include "src/automata/text_format.h"
#include "src/logic/compile.h"
#include "src/logic/parser.h"
#include "src/logic/planned_selector.h"
#include "src/logic/planner.h"
#include "src/logic/tree_eval.h"
#include "src/tree/axis_index.h"
#include "src/tree/generate.h"
#include "src/tree/snapshot.h"
#include "src/tree/term_io.h"
#include "src/tree/tree_stats.h"

namespace treewalk {
namespace {

Formula Parse(const std::string& source) {
  auto parsed = ParseFormula(source);
  EXPECT_TRUE(parsed.ok()) << source << ": " << parsed.status().ToString();
  return *parsed;
}

Tree Term(const std::string& source) {
  auto parsed = ParseTerm(source);
  EXPECT_TRUE(parsed.ok()) << source << ": " << parsed.status().ToString();
  return *parsed;
}

// --- TreeStats: exact statistics. --------------------------------------

TEST(TreeStats, ExactOnKnownTree) {
  //      f            depths: f=0, a=1, g=1, d=1, b=2, c=2
  //    / | \          desc pairs = sum_depths = 7
  //   a  g  d         sib pairs: root family C(3,2)=3, g family C(2,2)=1
  //     / \           succ pairs: 2 + 1
  //    b   c
  Tree t = Term("f(a, g(b, c), d)");
  TreeStats s = ComputeTreeStats(t);
  EXPECT_EQ(s.nodes, 6);
  EXPECT_EQ(s.edges, 5);
  EXPECT_EQ(s.max_depth, 2);
  EXPECT_EQ(s.sum_depths, 7);
  EXPECT_EQ(s.leaves, 4);
  EXPECT_EQ(s.parents, 2);
  EXPECT_EQ(s.max_fanout, 3);
  EXPECT_EQ(s.sib_pairs, 4);
  EXPECT_EQ(s.succ_pairs, 3);
  // Every node carries exactly one label; identities the snapshot
  // validator also enforces.
  std::int64_t label_total = 0;
  for (std::int64_t c : s.label_counts) label_total += c;
  EXPECT_EQ(label_total, s.nodes);
  EXPECT_EQ(s.leaves + s.parents, s.nodes);
  EXPECT_DOUBLE_EQ(s.AvgFanout(), 2.5);
}

TEST(TreeStats, EmptyTreeIsAllZero) {
  Tree empty;
  TreeStats s = ComputeTreeStats(empty);
  EXPECT_EQ(s.nodes, 0);
  EXPECT_EQ(s.edges, 0);
  EXPECT_EQ(s.MaxLabelCount(), 0);
}

TEST(TreeStats, AtomCardinalitiesAreExactOnRandomTrees) {
  // The closed forms the estimator's leaf estimates rely on, checked
  // against brute-force enumeration of the actual relations.
  std::mt19937 rng(411);
  RandomTreeOptions options;
  for (int round = 0; round < 20; ++round) {
    options.num_nodes = 1 + static_cast<int>(rng() % 60);
    Tree t = RandomTree(rng, options);
    TreeStats s = ComputeTreeStats(t);
    std::int64_t desc = 0, sib = 0, succ = 0, leaves = 0;
    for (NodeId u = 0; u < static_cast<NodeId>(t.size()); ++u) {
      if (t.ChildCount(u) == 0) ++leaves;
      // Every strict ancestor of u contributes one desc pair, so the
      // total is exactly the sum of depths.
      for (NodeId p = t.Parent(u); p != kNoNode; p = t.Parent(p)) ++desc;
      for (NodeId v = 0; v < static_cast<NodeId>(t.size()); ++v) {
        if (t.Parent(u) != kNoNode && t.Parent(u) == t.Parent(v) && u < v) {
          ++sib;
          if (t.NextSibling(u) == v) ++succ;
        }
      }
    }
    EXPECT_EQ(s.sum_depths, desc) << "round " << round;
    EXPECT_EQ(s.sib_pairs, sib) << "round " << round;
    EXPECT_EQ(s.succ_pairs, succ) << "round " << round;
    EXPECT_EQ(s.leaves, leaves) << "round " << round;
  }
}

// --- Snapshot preloading (docs/SNAPSHOT.md, v2 stats section). ---------

TEST(TreeStats, SnapshotRoundTripPreloadsExactStats) {
  std::mt19937 rng(2026);
  RandomTreeOptions options;
  options.num_nodes = 300;
  options.attributes = {"a", "b"};
  options.value_range = 5;
  Tree original = RandomTree(rng, options);

  auto image = std::make_shared<const std::string>(
      EncodeTreeSnapshot(original));
  auto loaded = TreeFromSnapshotImage(image);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();

  // The loaded tree carries preloaded stats, and they are *exactly* the
  // stats a fresh scan computes — the estimator sees no difference
  // between snapshot-backed and parsed trees.
  ASSERT_NE(loaded->snapshot_stats(), nullptr);
  EXPECT_EQ(*loaded->snapshot_stats(), ComputeTreeStats(*loaded));
  EXPECT_EQ(*loaded->snapshot_stats(), ComputeTreeStats(original));

  // GetOrComputeTreeStats serves the preloaded block without touching
  // scratch, and scans when there is no snapshot.
  TreeStats scratch;
  EXPECT_EQ(GetOrComputeTreeStats(*loaded, scratch),
            loaded->snapshot_stats());
  EXPECT_EQ(scratch.nodes, 0);
  const TreeStats* scanned = GetOrComputeTreeStats(original, scratch);
  EXPECT_EQ(scanned, &scratch);
  EXPECT_EQ(*scanned, *loaded->snapshot_stats());
}

// --- Formula features. -------------------------------------------------

TEST(FormulaFeatures, CountsStructure) {
  FormulaFeatures f = AnalyzeFormula(
      Parse("exists z ((desc(x, y) & E(y, z)) & !lab(z, a))"));
  EXPECT_EQ(f.atoms, 3);
  EXPECT_EQ(f.quantifiers, 1);
  EXPECT_EQ(f.exists_count, 1);
  EXPECT_EQ(f.forall_count, 0);
  EXPECT_EQ(f.negation_depth, 1);
  EXPECT_EQ(f.desc_atoms, 1);
  EXPECT_EQ(f.edge_atoms, 1);
  EXPECT_EQ(f.label_atoms, 1);
  EXPECT_EQ(f.width, 3);  // x, y, z live simultaneously
}

// --- Operator estimates. -----------------------------------------------

/// Synthetic stats for a balanced-ish tree of n nodes, enough structure
/// for every estimate to be finite and positive.
TreeStats SyntheticStats(std::int64_t n) {
  TreeStats s;
  s.nodes = n;
  s.edges = n - 1;
  s.max_depth = 16;
  s.sum_depths = 8 * n;
  s.leaves = n / 2;
  s.parents = n - n / 2;
  s.max_fanout = 4;
  s.sib_pairs = n;
  s.succ_pairs = n - 1;
  s.label_counts = {n / 2, n - n / 2};
  return s;
}

TEST(CostModel, AtomEstimatesAreExactAndOrdered) {
  Tree t = Term("f(a, g(b, c), d)");
  TreeStats s = ComputeTreeStats(t);
  SelectorPlan plan = PlanSelector(s, Parse("desc(x, y)"));
  ASSERT_EQ(plan.operators.size(), 1u);
  EXPECT_TRUE(plan.operators[0].exact);
  // desc has exactly sum_depths satisfier pairs.
  EXPECT_NEAR(plan.operators[0].rows, 7.0, 1e-9);
  // Operators render in pre-order with child depth = parent depth + 1.
  SelectorPlan nested = PlanSelector(s, Parse("exists z (E(x, z))"));
  ASSERT_EQ(nested.operators.size(), 2u);
  EXPECT_EQ(nested.operators[0].depth, 0);
  EXPECT_EQ(nested.operators[1].depth, 1);
  EXPECT_NEAR(nested.operators[1].rows, 5.0, 1e-9);  // edges
}

TEST(CostModel, DegenerateInputsFallBackToReference) {
  TreeStats empty;
  EXPECT_EQ(PlanSelector(empty, Parse("desc(x, y)")).strategy,
            PlanStrategy::kReference);
  Formula invalid;
  EXPECT_EQ(PlanSelector(SyntheticStats(64), invalid).strategy,
            PlanStrategy::kReference);
  // Any valid selector on a non-empty tree reads as compiled.
  EXPECT_EQ(PlanSelector(SyntheticStats(64), Parse("desc(x, y)")).strategy,
            PlanStrategy::kCompiledInterval);
}

// --- Interpreter pick counters. ----------------------------------------

/// Example 3.2's two selectors, `desc(x, y) & lab(y, delta)` among
/// them, are each prepared once per run however often they fire.  The
/// compiler accepts both, so every evaluation is seeded, with the
/// verdict, reason and step count of a reference-only run.
TEST(PlannerPicks, OnePickPerDistinctSelectorAndAcceptedSelectorsRunSeeded) {
  auto program = Example32Program("a");
  ASSERT_TRUE(program.ok());
  std::mt19937 rng(99);
  RandomTreeOptions options;
  // Only the labels Example 3.2 has rules for, and one attribute value,
  // so every delta check passes and the run asks both selectors often.
  options.labels = {"sigma", "delta"};
  options.attributes = {"a"};
  options.value_range = 1;
  options.num_nodes = 24;
  Tree t = RandomTree(rng, options);

  auto run = Interpreter(*program).Run(t);
  ASSERT_TRUE(run.ok()) << run.status().ToString();
  const RunStats& a = run->stats;
  ASSERT_TRUE(run->accepted);
  ASSERT_GT(a.atp_calls, 2);
  EXPECT_EQ(a.planner_picks_interval, 2);
  EXPECT_EQ(a.planner_picks_reference, 0);
  EXPECT_EQ(a.planner_picks_dense, 0);
  EXPECT_EQ(a.compiled_selector_evals, a.selector_cache_misses);

  RunOptions reference_only;
  reference_only.compile_selectors = false;
  auto ref_run = Interpreter(*program, reference_only).Run(t);
  ASSERT_TRUE(ref_run.ok()) << ref_run.status().ToString();
  EXPECT_EQ(ref_run->stats.planner_picks_interval, 0);
  EXPECT_EQ(ref_run->stats.planner_picks_reference, 0);
  EXPECT_EQ(ref_run->stats.compiled_selector_evals, 0);
  EXPECT_EQ(ref_run->accepted, run->accepted);
  EXPECT_EQ(ref_run->reason, run->reason);
  EXPECT_EQ(ref_run->stats.steps, run->stats.steps);
}

/// A selector the compiler declines (a 4-cycle of variables) counts one
/// reference pick and is answered by the reference evaluator at every
/// origin.  On a tree the pattern is unsatisfiable — y has one parent,
/// so z = w, and sib is irreflexive — so every answer is empty.
TEST(PlannerPicks, CompilerDeclineCountsOneReferencePick) {
  constexpr const char* kFourCycle =
      "exists z exists w (desc(x, z) & desc(x, w) & sib(z, w) & E(z, y) & "
      "E(w, y))";
  Tree t = FullTree(3, 3);
  const Formula phi = Parse(kFourCycle);
  std::optional<AxisIndex> index;
  auto planned = PlannedSelector::Prepare(t, phi, index, nullptr);
  ASSERT_TRUE(planned.ok()) << planned.status().ToString();
  EXPECT_FALSE(planned->compiled());
  EXPECT_EQ(planned->decline().message(),
            "subformula needs more than two variables");
  for (NodeId origin = 0; origin < static_cast<NodeId>(t.size()); ++origin) {
    auto reference = SelectNodes(t, phi, origin);
    ASSERT_TRUE(reference.ok()) << reference.status().ToString();
    auto answer = planned->SelectFrom(origin);
    ASSERT_TRUE(answer.ok()) << answer.status().ToString();
    EXPECT_EQ(*answer, *reference) << "origin " << origin;
  }

  auto program = ParseProgramText(
      std::string("class twrl\nstates q0 qf\nregister X1 1\n"
                  "rule #top q0 [true] atp X1 \"") +
      kFourCycle +
      "\" q1 p\n"
      "rule #top q1 [true] move stay qf\n"
      "rule * p [true] move stay qf\n");
  ASSERT_TRUE(program.ok()) << program.status().ToString();
  RunOptions traced;
  traced.record_trace = true;
  auto run = Interpreter(*program, traced).Run(t);
  ASSERT_TRUE(run.ok()) << run.status().ToString();
  EXPECT_EQ(run->stats.planner_picks_reference, 1);
  EXPECT_EQ(run->stats.planner_picks_interval, 0);
  EXPECT_EQ(run->stats.compiled_selector_evals, 0);

  RunOptions reference_only = traced;
  reference_only.compile_selectors = false;
  auto ref_run = Interpreter(*program, reference_only).Run(t);
  ASSERT_TRUE(ref_run.ok()) << ref_run.status().ToString();
  EXPECT_EQ(run->accepted, ref_run->accepted);
  EXPECT_EQ(run->stats.subcomputations, ref_run->stats.subcomputations);
  EXPECT_EQ(run->trace, ref_run->trace);
}

/// An atp() at every node of a full traversal asks one compiled
/// selector from 61 distinct origins: each is answered seeded, with the
/// verdict, reason and step count of a reference-only run.  On a path
/// every origin's desc row reaches the rest of the tree.
TEST(PlannerPicks, EveryNodeSelectorIsAnsweredSeeded) {
  constexpr const char* kBelowChildren = "exists z (desc(x, z) & E(z, y))";
  auto program = ParseProgramText(
      std::string("class twrl\nstates fwd qf\nregister X1 1\n"
                  "rule #top fwd [true] move down fwd\n"
                  "rule #open fwd [true] move right fwd\n"
                  "rule * fwd [true] atp X1 \"") +
      kBelowChildren +
      "\" acc dn\n"
      "rule * acc [true] move stay qf\n"
      "rule * dn [true] move down fwd\n"
      "rule #leaf fwd [true] move up back\n"
      "rule #close fwd [true] move up back\n"
      "rule * back [true] move right fwd\n");
  ASSERT_TRUE(program.ok()) << program.status().ToString();
  Tree t = FullTree(1, 60);

  auto run = Interpreter(*program).Run(t);
  ASSERT_TRUE(run.ok()) << run.status().ToString();
  RunOptions reference_only;
  reference_only.compile_selectors = false;
  auto ref_run = Interpreter(*program, reference_only).Run(t);
  ASSERT_TRUE(ref_run.ok()) << ref_run.status().ToString();
  EXPECT_EQ(run->accepted, ref_run->accepted);
  EXPECT_EQ(run->reason, ref_run->reason);
  EXPECT_EQ(run->stats.steps, ref_run->stats.steps);

  // One atp per original node, each from a new origin, all compiled.
  const RunStats& s = run->stats;
  EXPECT_EQ(s.selector_cache_misses, 61);
  EXPECT_EQ(s.planner_picks_interval, 1);
  EXPECT_EQ(s.compiled_selector_evals, 61);
  EXPECT_EQ(ref_run->stats.compiled_selector_evals, 0);
}

// --- The differential oracle: planned == reference == materialized ==
// seeded. ---------------------------------------------------------------

/// Random FO tree formulas over {x, y} (same generator family as
/// tests/compiled_eval_test.cc, reproduced here so the two oracles can
/// evolve independently).
class SelectorGen {
 public:
  explicit SelectorGen(std::mt19937& rng) : rng_(rng) {}

  Formula Gen(int depth, std::vector<std::string> scope) {
    if (depth <= 0) return Atom(scope);
    switch (rng_() % 8) {
      case 0:
        return Atom(scope);
      case 1:
        return Formula::Not(Gen(depth - 1, scope));
      case 2:
        return Formula::And(Gen(depth - 1, scope), Gen(depth - 1, scope));
      case 3:
        return Formula::Or(Gen(depth - 1, scope), Gen(depth - 1, scope));
      case 4:
        return Formula::Implies(Gen(depth - 1, scope), Gen(depth - 1, scope));
      case 5: {
        std::string v = FreshVar(scope);
        scope.push_back(v);
        return Formula::Exists(v, Gen(depth - 1, scope));
      }
      case 6: {
        std::string v = FreshVar(scope);
        scope.push_back(v);
        return Formula::Forall(v, Gen(depth - 1, scope));
      }
      default:
        return Formula::Iff(Atom(scope), Gen(depth - 1, scope));
    }
  }

 private:
  const std::string& Var(const std::vector<std::string>& scope) {
    return scope[rng_() % scope.size()];
  }

  std::string FreshVar(const std::vector<std::string>& scope) {
    if (rng_() % 4 == 0) return Var(scope);
    return std::string("q") + std::to_string(rng_() % 3);
  }

  Formula Atom(const std::vector<std::string>& scope) {
    switch (rng_() % 10) {
      case 0:
        return Formula::Edge(Var(scope), Var(scope));
      case 1:
        return Formula::Sibling(Var(scope), Var(scope));
      case 2:
        return Formula::Descendant(Var(scope), Var(scope));
      case 3:
        return Formula::Succ(Var(scope), Var(scope));
      case 4:
        return Formula::VarEq(Var(scope), Var(scope));
      case 5:
        return Formula::Label(Var(scope), rng_() % 2 ? "a" : "b");
      case 6:
        return Formula::Root(Var(scope));
      case 7:
        return Formula::Leaf(Var(scope));
      case 8:
        return Formula::First(Var(scope));
      default:
        return Formula::Last(Var(scope));
    }
  }

  std::mt19937& rng_;
};

TEST(PlannerDifferentialOracle, PlannedMatchesEveryFixedStrategy) {
  std::mt19937 rng(20260809);
  SelectorGen gen(rng);
  RandomTreeOptions options;

  int instances = 0;
  int accepted = 0;
  int declined = 0;
  while (instances < 520) {
    options.num_nodes = 1 + static_cast<int>(rng() % 18);
    Tree tree = RandomTree(rng, options);
    std::optional<AxisIndex> index;
    Formula formula = gen.Gen(1 + static_cast<int>(rng() % 3), {"x", "y"});
    ++instances;

    // What the interpreter runs for one selector.
    auto planned = PlannedSelector::Prepare(tree, formula, index, nullptr);
    ASSERT_TRUE(planned.ok()) << planned.status().ToString();
    ++(planned->compiled() ? accepted : declined);

    auto interval = CompileSelector(*index, formula);
    auto seeded = PrepareSelector(*index, formula);
    ASSERT_EQ(seeded.ok(), interval.ok()) << formula.ToString();
    ASSERT_EQ(planned->compiled(), seeded.ok()) << formula.ToString();

    for (NodeId origin = 0; origin < static_cast<NodeId>(tree.size());
         ++origin) {
      auto reference = SelectNodes(tree, formula, origin);
      ASSERT_TRUE(reference.ok()) << formula.ToString();
      auto answer = planned->SelectFrom(origin);
      ASSERT_TRUE(answer.ok()) << answer.status().ToString();
      ASSERT_EQ(*answer, *reference)
          << (planned->compiled() ? "seeded" : "declined") << " "
          << formula.ToString() << " on " << PrintTerm(tree) << " at origin "
          << origin;
      if (interval.ok()) {
        ASSERT_EQ(interval->SelectFrom(origin), *reference)
            << formula.ToString();
        auto from_origin = seeded->SelectFrom(origin);
        ASSERT_TRUE(from_origin.ok()) << from_origin.status().ToString();
        ASSERT_EQ(*from_origin, *reference) << "seeded " << formula.ToString();
      }
    }
  }
  // The oracle only proves something if the stream exercises both sides
  // of the rule: selectors the compiler accepts and selectors it
  // declines.
  EXPECT_GE(instances, 500);
  EXPECT_GT(accepted, 0);
  EXPECT_GT(declined, 0);
}

}  // namespace
}  // namespace treewalk
