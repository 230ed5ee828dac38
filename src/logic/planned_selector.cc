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

Result<PlannedSelector> PlannedSelector::Prepare(
    const Tree& tree, const Formula& formula, std::optional<AxisIndex>& index,
    ResourceGovernor* governor) {
  PlannedSelector planned(tree, formula);
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
  } else {
    planned.decline_ = seeded.status();
  }
  return planned;
}

Result<std::vector<NodeId>> PlannedSelector::SelectFrom(NodeId origin) {
  if (seeded_.has_value()) return seeded_->SelectFrom(origin);
  return SelectNodes(*tree_, *formula_, origin);
}

}  // namespace treewalk
