#ifndef TREEWALK_LOGIC_PLANNED_SELECTOR_H_
#define TREEWALK_LOGIC_PLANNED_SELECTOR_H_

#include <optional>
#include <vector>

#include "src/common/governor.h"
#include "src/common/result.h"
#include "src/logic/bitset_eval.h"
#include "src/logic/formula.h"
#include "src/tree/axis_index.h"

namespace treewalk {

/// A binary selector phi(x, y) prepared once against one tree, answering
/// every origin by one rule (docs/PLANNER.md): seeded evaluation from
/// that origin (SeededSelector, docs/EVALUATOR.md), unless the compiler
/// declined the formula, in which case the reference SelectNodes answers.
/// This is the one place that rule lives: the interpreter keeps one per
/// distinct atp() selector per run, and `twq explain --evals` runs the
/// same object.
///
/// Not thread-safe (the seeded memo is per object); the tree, the
/// formula and the axis index must outlive it.
class PlannedSelector {
 public:
  /// Prepares `formula` for seeded evaluation against `*index`, which is
  /// built from `tree` and charged to `governor` by the first selector
  /// that finds it empty — a run shares one slot across its selectors.
  /// Fails only on a budget or deadline trip; any other compile failure
  /// is a decline, answered by the reference evaluator.
  static Result<PlannedSelector> Prepare(const Tree& tree,
                                         const Formula& formula,
                                         std::optional<AxisIndex>& index,
                                         ResourceGovernor* governor);

  /// Whether SelectFrom runs the compiled evaluator (false for a
  /// decline).
  bool compiled() const { return seeded_.has_value(); }
  /// Why the compiler declined; OK when compiled().
  const Status& decline() const { return decline_; }

  /// All v with t |= phi(origin, v), in document order: equal to
  /// SelectNodes(tree, phi, origin), including its errors on the
  /// reference path.  Compiled evaluation fails only on a governor
  /// budget or deadline trip.
  Result<std::vector<NodeId>> SelectFrom(NodeId origin);

 private:
  PlannedSelector(const Tree& tree, const Formula& formula)
      : tree_(&tree), formula_(&formula) {}

  const Tree* tree_;
  const Formula* formula_;
  std::optional<SeededSelector> seeded_;
  Status decline_;
};

}  // namespace treewalk

#endif  // TREEWALK_LOGIC_PLANNED_SELECTOR_H_
