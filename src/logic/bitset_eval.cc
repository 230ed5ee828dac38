#include "src/logic/bitset_eval.h"

#include <cassert>
#include <numeric>
#include <utility>

namespace treewalk {

namespace {

std::vector<NodeId> AllNodes(std::size_t n) {
  std::vector<NodeId> out(n);
  std::iota(out.begin(), out.end(), NodeId{0});
  return out;
}

/// Heap bytes to pre-charge for one op (0 for consts, loads, and
/// booleans, which alias or copy nothing).  Matrix ops whose output
/// size is data-dependent (And/Or/Compose/ColBroadcast) charge their
/// span pools internally in chunks as they grow and return 0 here; the
/// fixed-size ones (Not, RowBroadcast) pre-charge their O(n) descriptor
/// arrays.
std::int64_t AllocBytes(const Op& op, std::size_t n) {
  switch (op.kind) {
    case OpKind::kNotSet:
    case OpKind::kAndSet:
    case OpKind::kOrSet:
    case OpKind::kBoolToSet:
    case OpKind::kAnyRow:
    case OpKind::kAllRow:
      return static_cast<std::int64_t>((n + 63) / 64 * 8 + 48);
    case OpKind::kNotMat:
    case OpKind::kSetToMatRow:
      return static_cast<std::int64_t>(n * sizeof(IntervalMatrix::Row)) + 64;
    default:
      return 0;
  }
}

}  // namespace

std::vector<OpValue> EvaluateOps(const std::vector<Op>& ops, std::size_t n) {
  // A null governor cannot fail a charge or a deadline check.
  return std::move(EvaluateOpsGoverned(ops, n, nullptr)).value();
}

Result<std::vector<OpValue>> EvaluateOpsGoverned(const std::vector<Op>& ops,
                                                 std::size_t n,
                                                 ResourceGovernor* governor) {
  ScopedMemoryCharge transient(governor, MemoryCategory::kCompiledOps);
  std::vector<OpValue> vals(ops.size());
  for (std::size_t i = 0; i < ops.size(); ++i) {
    const Op& op = ops[i];
    OpValue& out = vals[i];
    if (governor != nullptr) {
      TREEWALK_RETURN_IF_ERROR(governor->CheckDeadlineNow());
      TREEWALK_RETURN_IF_ERROR(transient.Add(AllocBytes(op, n)));
    }
    // Data-dependent span pools charge `transient` directly (chunked,
    // before growing).
    ScopedMemoryCharge* pool_charge = governor != nullptr ? &transient : nullptr;
    switch (op.kind) {
      case OpKind::kConstBool:
        out.b = op.literal;
        break;
      case OpKind::kLoadSet:
        assert(op.set != nullptr);
        out.set = op.set;
        break;
      case OpKind::kLoadMat: {
        assert(op.imat != nullptr);
        if (!op.transposed) {
          out.imat = op.imat;
          break;
        }
        auto r = IntervalMatrix::Transposed(*op.imat, pool_charge);
        if (!r.ok()) return r.status();
        out.imat = std::make_shared<IntervalMatrix>(std::move(r).value());
        break;
      }
      case OpKind::kNotBool:
        out.b = !vals[op.a].b;
        break;
      case OpKind::kAndBool:
        out.b = vals[op.a].b && vals[op.b].b;
        break;
      case OpKind::kOrBool:
        out.b = vals[op.a].b || vals[op.b].b;
        break;
      case OpKind::kNotSet: {
        auto s = std::make_shared<NodeSet>(*vals[op.a].set);
        s->Complement();
        out.set = std::move(s);
        break;
      }
      case OpKind::kAndSet: {
        auto s = std::make_shared<NodeSet>(*vals[op.a].set);
        s->Intersect(*vals[op.b].set);
        out.set = std::move(s);
        break;
      }
      case OpKind::kOrSet: {
        auto s = std::make_shared<NodeSet>(*vals[op.a].set);
        s->Union(*vals[op.b].set);
        out.set = std::move(s);
        break;
      }
      case OpKind::kNotMat:
        out.imat = std::make_shared<IntervalMatrix>(
            IntervalMatrix::Not(*vals[op.a].imat));
        break;
      case OpKind::kAndMat: {
        auto r = IntervalMatrix::And(*vals[op.a].imat, *vals[op.b].imat,
                                     pool_charge);
        if (!r.ok()) return r.status();
        out.imat = std::make_shared<IntervalMatrix>(std::move(r).value());
        break;
      }
      case OpKind::kOrMat: {
        auto r = IntervalMatrix::Or(*vals[op.a].imat, *vals[op.b].imat,
                                    pool_charge);
        if (!r.ok()) return r.status();
        out.imat = std::make_shared<IntervalMatrix>(std::move(r).value());
        break;
      }
      case OpKind::kBoolToSet:
        out.set = std::make_shared<NodeSet>(vals[op.a].b ? NodeSet::Full(n)
                                                         : NodeSet(n));
        break;
      case OpKind::kSetToMatRow:
        out.imat = std::make_shared<IntervalMatrix>(
            IntervalMatrix::RowBroadcast(*vals[op.a].set));
        break;
      case OpKind::kSetToMatCol: {
        auto r = IntervalMatrix::ColBroadcast(*vals[op.a].set, pool_charge);
        if (!r.ok()) return r.status();
        out.imat = std::make_shared<IntervalMatrix>(std::move(r).value());
        break;
      }
      case OpKind::kAnyRow:
        out.set = std::make_shared<NodeSet>(vals[op.a].imat->AnyPerRow());
        break;
      case OpKind::kAllRow:
        out.set = std::make_shared<NodeSet>(vals[op.a].imat->AllPerRow());
        break;
      case OpKind::kAnySet:
        out.b = vals[op.a].set->any();
        break;
      case OpKind::kAllSet:
        out.b = vals[op.a].set->all();
        break;
      case OpKind::kCompose: {
        const NodeSet* guard =
            op.c >= 0 ? vals[static_cast<std::size_t>(op.c)].set.get()
                      : nullptr;
        auto r = IntervalMatrix::Compose(*vals[op.a].imat, *vals[op.b].imat,
                                         guard, pool_charge);
        if (!r.ok()) return r.status();
        out.imat = std::make_shared<IntervalMatrix>(std::move(r).value());
        break;
      }
    }
  }
  // `transient` releases the evaluation-scope charges here; the caller
  // re-charges whatever it copies out and keeps.
  return vals;
}

std::int64_t CompiledSelector::RetainedBytes() const {
  switch (shape_) {
    case Shape::kBool:
      return 0;
    case Shape::kSetX:
    case Shape::kSetY:
      return static_cast<std::int64_t>((n_ + 63) / 64 * 8 + 48);
    case Shape::kMat:
      return imat_->ApproxBytes();
  }
  return 0;
}

std::vector<NodeId> CompiledSelector::SelectFrom(NodeId origin) const {
  assert(origin >= 0 && origin < static_cast<NodeId>(n_));
  switch (shape_) {
    case Shape::kBool:
      return literal_ ? AllNodes(n_) : std::vector<NodeId>{};
    case Shape::kSetX:
      // phi mentions only x: every y qualifies iff phi(origin) holds.
      return set_->test(origin) ? AllNodes(n_) : std::vector<NodeId>{};
    case Shape::kSetY:
      return set_->ToVector();
    case Shape::kMat:
      return imat_->RowVector(origin);
  }
  return {};
}

}  // namespace treewalk
