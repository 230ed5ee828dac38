#ifndef TREEWALK_LOGIC_PLANNER_H_
#define TREEWALK_LOGIC_PLANNER_H_

#include <string>
#include <vector>

#include "src/logic/formula.h"
#include "src/tree/axis_index.h"
#include "src/tree/tree_stats.h"

namespace treewalk {

/// Tree statistics and formula features for `twq explain`
/// (docs/PLANNER.md).
///
/// Which evaluator answers a selector is not decided here: a run
/// prepares every selector for seeded evaluation and answers it with
/// the reference evaluator only when the compiler declines
/// (src/logic/planned_selector.h).  What remains is an estimator:
/// cheap exact tree statistics (TreeStats) plus structural formula
/// features feed per-operator cardinality estimates, which `twq
/// explain` prints.  Runs never compute it.
///
/// Determinism: PlanSelector is a pure function of (stats, formula), so
/// explain's output is golden-testable.

/// Kept for perfbench/pbtool.cc, which replays a compiled pick's
/// evaluation only when PlanSelector says kCompiledInterval.
enum class PlanStrategy {
  kReference = 0,
  kCompiledInterval,
};

/// Structural features of a selector, extracted in one AST walk.
struct FormulaFeatures {
  int size = 0;             ///< AST nodes
  int atoms = 0;            ///< atom leaves
  int quantifiers = 0;      ///< exists + forall
  int exists_count = 0;
  int forall_count = 0;
  int quantifier_depth = 0; ///< max nesting of quantifiers
  int negation_depth = 0;   ///< max nesting of kNot
  int or_count = 0;         ///< disjunctions (widen interval rows)
  int iff_count = 0;
  int implies_count = 0;
  /// Max simultaneous free variables over all subformulas ("width" of
  /// the *raw* formula; the compiler may still shrink it).
  int width = 0;
  // Axis mix: how many atoms of each shape appear.
  int edge_atoms = 0;
  int desc_atoms = 0;
  int sib_atoms = 0;
  int succ_atoms = 0;
  int label_atoms = 0;
  int unary_atoms = 0;      ///< root/leaf/first/last
  int node_eq_atoms = 0;
  int data_atoms = 0;       ///< equalities over attribute values

  friend bool operator==(const FormulaFeatures&,
                         const FormulaFeatures&) = default;
};

FormulaFeatures AnalyzeFormula(const Formula& f);

/// Cardinality estimate for one subformula, in pre-order; rendered by
/// `twq explain`.
struct OperatorEstimate {
  std::string op;          ///< short operator description
  int depth = 0;           ///< AST depth, for indented rendering
  double rows = 0.0;       ///< estimated satisfier count over free vars
  double selectivity = 0.0;///< rows / domain size
  bool exact = false;      ///< closed-form from TreeStats (atom leaves)
};

struct SelectorPlan {
  /// Kept for perfbench/pbtool.cc: kCompiledInterval for every valid
  /// selector on a non-empty tree, kReference otherwise.
  PlanStrategy strategy = PlanStrategy::kReference;
  /// Always kInterval; kept for perfbench/pbtool.cc, which passes it to
  /// CompileSelector.
  AxisRepr repr = AxisRepr::kInterval;
  FormulaFeatures features;
  /// Estimated satisfier pairs of the whole selector phi(x, y).
  double estimated_rows = 0.0;
  /// Per-subformula estimates, pre-order over the AST.
  std::vector<OperatorEstimate> operators;
};

/// Estimates `selector` (free variables within {x, y}) against a tree
/// summarized by `stats`: its features and per-operator estimates.
/// Pure function; never fails — a degenerate input (empty tree, invalid
/// formula) returns an empty plan with strategy kReference.
SelectorPlan PlanSelector(const TreeStats& stats, const Formula& selector);

}  // namespace treewalk

#endif  // TREEWALK_LOGIC_PLANNER_H_
