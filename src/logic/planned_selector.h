#ifndef TREEWALK_LOGIC_PLANNED_SELECTOR_H_
#define TREEWALK_LOGIC_PLANNED_SELECTOR_H_

#include <optional>
#include <vector>

#include "src/common/governor.h"
#include "src/common/result.h"
#include "src/logic/bitset_eval.h"
#include "src/logic/formula.h"
#include "src/logic/planner.h"
#include "src/tree/axis_index.h"
#include "src/tree/tree_stats.h"

namespace treewalk {

/// A binary selector phi(x, y) planned once against one tree, answering
/// every origin the way its plan says (docs/PLANNER.md): a compiled pick
/// by seeded evaluation from that origin (SeededSelector,
/// docs/EVALUATOR.md), a reference pick — or a formula the compiler
/// declines — by the reference SelectNodes.  This is the one place that
/// policy lives: the interpreter keeps one per distinct atp() selector
/// per run, and bench_planner's auto arm runs the same object.
///
/// Not thread-safe (the seeded memo is per object); the tree, the
/// formula and the axis index must outlive it.
class PlannedSelector {
 public:
  /// Plans `formula` with `calibration` from `stats` (the statistics of
  /// `tree`).  A compiled pick is prepared against `*index`, which is
  /// built from `tree` and charged to `governor` by the first compiled
  /// pick that finds it empty — a run shares one slot across its
  /// selectors, so a run of reference picks never builds an index.
  /// Fails only on a budget or deadline trip; any other compile failure
  /// is a decline, answered by the reference evaluator.
  static Result<PlannedSelector> Plan(const Tree& tree,
                                      const TreeStats& stats,
                                      const Formula& formula,
                                      const PlannerCalibration& calibration,
                                      std::optional<AxisIndex>& index,
                                      ResourceGovernor* governor);

  /// The planner's pick; a compile decline still reports
  /// kCompiledInterval.
  PlanStrategy strategy() const { return strategy_; }
  /// Whether SelectFrom runs the compiled evaluator (false for a
  /// reference pick or a decline).
  bool compiled() const { return seeded_.has_value(); }

  /// All v with t |= phi(origin, v), in document order: equal to
  /// SelectNodes(tree, phi, origin), including its errors on the
  /// reference path.  Compiled evaluation fails only on a governor
  /// budget or deadline trip.
  Result<std::vector<NodeId>> SelectFrom(NodeId origin);

 private:
  PlannedSelector(const Tree& tree, const Formula& formula,
                  PlanStrategy strategy)
      : tree_(&tree), formula_(&formula), strategy_(strategy) {}

  const Tree* tree_;
  const Formula* formula_;
  PlanStrategy strategy_;
  std::optional<SeededSelector> seeded_;
};

}  // namespace treewalk

#endif  // TREEWALK_LOGIC_PLANNED_SELECTOR_H_
