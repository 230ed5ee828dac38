#include "src/logic/planned_selector.h"

#include <utility>

#include "src/logic/compile.h"
#include "src/logic/tree_eval.h"

namespace treewalk {

namespace {

/// Budget and deadline trips are hard errors for the whole run: falling
/// back to the reference evaluator would evade the very limits the
/// governor enforces.  Every other compile failure (width > 2, injected
/// compiler faults) is a decline.
bool IsHardError(const Status& status) {
  return status.code() == StatusCode::kResourceExhausted ||
         status.code() == StatusCode::kDeadlineExceeded;
}

}  // namespace

Result<PlannedSelector> PlannedSelector::Plan(
    const Tree& tree, const TreeStats& stats, const Formula& formula,
    const PlannerCalibration& calibration, std::optional<AxisIndex>& index,
    ResourceGovernor* governor) {
  const SelectorPlan plan = PlanSelector(stats, formula, calibration);
  PlannedSelector planned(tree, formula, plan.strategy);
  if (plan.strategy == PlanStrategy::kReference) return planned;
  if (!index.has_value()) {
    index.emplace(tree, governor);
    // Construction charges the base bitsets; a trip surfaces here as
    // the run's error rather than in a getter.
    TREEWALK_RETURN_IF_ERROR(index->status());
  }
  Result<SeededSelector> seeded = PrepareSelector(*index, formula);
  if (seeded.ok()) {
    planned.seeded_ = std::move(seeded).value();
  } else if (IsHardError(seeded.status())) {
    return seeded.status();
  }
  return planned;
}

Result<std::vector<NodeId>> PlannedSelector::SelectFrom(NodeId origin) {
  if (seeded_.has_value()) return seeded_->SelectFrom(origin);
  return SelectNodes(*tree_, *formula_, origin);
}

}  // namespace treewalk
