#ifndef TREEWALK_LOGIC_COMPILE_H_
#define TREEWALK_LOGIC_COMPILE_H_

#include <string>

#include "src/common/result.h"
#include "src/logic/bitset_eval.h"
#include "src/logic/formula.h"
#include "src/tree/axis_index.h"

namespace treewalk {

/// Set-at-a-time compilation of FO tree formulas (docs/EVALUATOR.md).
///
/// A formula is normalized (NNF via ToNegationNormalForm), variables are
/// assigned scope-ordered slots, and each subformula becomes one op in a
/// hash-consed DAG over satisfier sets: atoms load unary predicate
/// bitsets and interval-encoded axis relations from the AxisIndex,
/// connectives are set and span algebra, and quantifiers are
/// OR/AND-reductions along the quantified axis (with miniscoping and a
/// guarded-join composition for the one extra existential variable the
/// width-2 representation cannot hold directly).  Evaluating the DAG
/// once materializes the full satisfier relation; SelectFrom(origin) is
/// then a row read per origin instead of an O(n^depth) recursive scan.
///
/// Compilation is *partial*: formulas whose subformulas need three or
/// more simultaneous free variables (after miniscoping and the guarded
/// join), empty trees, and ill-formed inputs return a non-OK status.
/// Callers fall back to the reference SelectNodes / EvalTreeFormula,
/// which also reproduces the reference error behavior exactly; the
/// compiled path never diverges from the oracle, it only declines.
///
/// CompileSelector's result is a self-contained copy: the AxisIndex and
/// Tree need only outlive the call itself, not the returned object.
/// Compile once per (selector, tree); reuse across origins.

/// Compiles a binary selector phi(x, y) against the tree behind `index`.
/// Free variables must be within {x, y} (either may be unused).
///
/// `repr` has one value; the parameter is kept for perfbench/pbtool.cc,
/// which passes SelectorPlan::repr here.
Result<CompiledSelector> CompileSelector(const AxisIndex& index,
                                         const Formula& formula,
                                         const std::string& x = "x",
                                         const std::string& y = "y",
                                         AxisRepr repr = AxisRepr::kInterval);

/// Compiles the same op DAG as CompileSelector — declining exactly the
/// formulas it declines — but does not evaluate it: the result answers
/// each origin by seeded evaluation (SeededSelector, docs/EVALUATOR.md),
/// at a cost bounded by the rows that origin reaches instead of the
/// whole relation.  Unlike CompileSelector's result, the SeededSelector
/// reads `index`, which must outlive it.
Result<SeededSelector> PrepareSelector(const AxisIndex& index,
                                       const Formula& formula,
                                       const std::string& x = "x",
                                       const std::string& y = "y");

}  // namespace treewalk

#endif  // TREEWALK_LOGIC_COMPILE_H_
