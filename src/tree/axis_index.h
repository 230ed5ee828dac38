#ifndef TREEWALK_TREE_AXIS_INDEX_H_
#define TREEWALK_TREE_AXIS_INDEX_H_

#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <string_view>
#include <vector>

#include "src/common/data_value.h"
#include "src/common/governor.h"
#include "src/common/result.h"
#include "src/tree/tree.h"

namespace treewalk {

class IntervalMatrix;  // src/tree/interval_matrix.h

/// Matrix representation of compiled selectors.  Interval-encoded rows
/// (src/tree/interval_matrix.h) are the only carrier; the enum and the
/// `repr` parameters that take it are kept for perfbench/pbtool.cc,
/// which passes SelectorPlan::repr through to CompileSelector.  The
/// value 1 is also the repr word of every `.twsel` entry
/// (docs/SNAPSHOT.md).
enum class AxisRepr {
  kInterval = 1,
};

/// Dense bitset over Dom(t): one bit per NodeId, packed 64 per word.
/// Because nodes are stored in document order, iterating set bits from
/// word 0 upward yields nodes in document order for free.
class NodeSet {
 public:
  NodeSet() = default;
  /// All-zero set over a domain of `n` nodes.
  explicit NodeSet(std::size_t n) : n_(n), words_((n + 63) / 64, 0) {}

  static NodeSet Full(std::size_t n) {
    NodeSet s(n);
    for (auto& w : s.words_) w = ~std::uint64_t{0};
    s.MaskTail();
    return s;
  }

  /// Domain size (number of addressable bits), not the popcount.
  std::size_t size() const { return n_; }
  std::size_t num_words() const { return words_.size(); }

  bool test(NodeId u) const {
    return (words_[static_cast<std::size_t>(u) >> 6] >>
            (static_cast<std::size_t>(u) & 63)) &
           1;
  }
  void set(NodeId u) {
    words_[static_cast<std::size_t>(u) >> 6] |=
        std::uint64_t{1} << (static_cast<std::size_t>(u) & 63);
  }
  /// Sets every bit in [begin, end).
  void SetRange(NodeId begin, NodeId end);

  bool any() const;
  bool all() const;
  std::size_t count() const;

  void Union(const NodeSet& o);
  void Intersect(const NodeSet& o);
  /// Flips all bits (complement relative to Dom(t)).
  void Complement();

  /// Set bits in ascending NodeId order = document order.
  std::vector<NodeId> ToVector() const;

  const std::uint64_t* words() const { return words_.data(); }
  std::uint64_t* words() { return words_.data(); }

  friend bool operator==(const NodeSet&, const NodeSet&) = default;

 private:
  void MaskTail();

  std::size_t n_ = 0;
  std::vector<std::uint64_t> words_;
};

/// Per-tree index of the tau_{Sigma,A} vocabulary as set-valued views,
/// computed once and shared by every compiled formula over one tree
/// (src/logic/compile.h).  The scalar navigation arrays (parent,
/// first/last child, successor, document-order rank = NodeId) stay on
/// the Tree itself; the index adds what set-at-a-time evaluation needs:
///
///   - unary predicate bitsets: root(x), leaf(x), first(x), last(x);
///   - label -> node-set and attribute-value -> node-set maps;
///   - memoized interval-encoded axis relations: E (child), desc
///     (strict descendant, a contiguous pre-order range per row), sib
///     (later siblings, a window onto the parent's child runs), succ,
///     and the identity.
///
/// Construction is O(n) plus O(|Sigma| + #distinct-values) bitsets;
/// each relation is materialized on first use and cached.  Not
/// thread-safe: use one AxisIndex per run (the interpreter owns one per
/// Runner).  The tree must outlive the index.
class AxisIndex {
 public:
  /// With a governor, every materialization (base bitsets, axis
  /// relations, attribute-value indexes) is charged against its memory
  /// budget under MemoryCategory::kAxisIndex *before* allocating, and
  /// the Try* accessors surface kResourceExhausted instead of growing
  /// without bound.  Without one (the default) behavior is unchanged.
  explicit AxisIndex(const Tree& tree, ResourceGovernor* governor = nullptr);
  ~AxisIndex();  // out of line: interval slots hold an incomplete type here

  const Tree& tree() const { return *tree_; }
  std::size_t size() const { return n_; }
  ResourceGovernor* governor() const { return governor_; }
  /// Non-OK when already the construction-time bitsets blew the budget;
  /// check after constructing with a governor.
  const Status& status() const { return status_; }

  const NodeSet& Empty() const { return empty_; }
  const NodeSet& Full() const { return full_; }
  const NodeSet& Roots() const { return roots_; }
  const NodeSet& Leaves() const { return leaves_; }
  const NodeSet& FirstChildren() const { return first_children_; }
  const NodeSet& LastChildren() const { return last_children_; }

  /// Nodes labeled `name`; the empty set when no node carries it (the
  /// lab(x, sigma) semantics: an unknown label is false everywhere).
  const NodeSet& LabelSet(std::string_view name) const;

  /// Nodes whose attribute `a` has value `v` (empty set when none).
  /// `a` must be a valid attribute id of the tree.
  const NodeSet& AttrValueSet(AttrId a, DataValue v) const;
  /// Distinct values of attribute `a`, ascending.
  const std::vector<DataValue>& AttrValues(AttrId a) const;

  /// Governed attribute-value lookups: charge the governor's memory
  /// budget before materializing an attribute's value index (a cached
  /// index re-charges nothing) and fail with kResourceExhausted instead
  /// of allocating past the budget.  The compiler (src/logic/compile.cc)
  /// uses these; the accessors above stay for ungoverned callers.
  Result<const NodeSet*> TryAttrValueSet(AttrId a, DataValue v) const;
  Result<const std::vector<DataValue>*> TryAttrValues(AttrId a) const;

  /// Interval-encoded axis relations, as O(n)-byte IntervalMatrix
  /// objects.  The pre-order arena makes every one span-sparse —
  /// desc(u) is the single range (u, SubtreeEnd(u)), succ(u) one
  /// point, sib(u) a suffix window onto one shared child-run list per
  /// family.  Each is materialized on first use with an *exact*
  /// pre-charge (a span-count prepass) under MemoryCategory::kAxisIndex,
  /// and cached; a charge the budget rejects fails with
  /// kResourceExhausted instead of allocating.
  ///
  /// E(u, v): v is a child of u.
  Result<const IntervalMatrix*> TryEdgeIntervals() const;
  /// desc(u, v): v is a strict descendant of u.
  Result<const IntervalMatrix*> TryDescendantIntervals() const;
  /// sib(u, v): same parent, u before v.
  Result<const IntervalMatrix*> TrySiblingIntervals() const;
  /// succ(u, v): v is the right sibling of u.
  Result<const IntervalMatrix*> TrySuccIntervals() const;
  /// u = v.
  Result<const IntervalMatrix*> TryIdentityIntervals() const;

  /// rank[u] = position of u in post-order (pre-order rank is the
  /// NodeId itself).  desc(u, v) iff u < v and rank[v] < rank[u]: the
  /// interval-numbering invariant the metamorphic suite checks.
  /// Lazy, cached, charged under kAxisIndex.
  Result<const std::vector<NodeId>*> TryPostorderRanks() const;
  /// Ungoverned variant (materializes unconditionally).
  const std::vector<NodeId>& PostorderRanks() const;

 private:
  struct AttrIndex {
    std::map<DataValue, NodeSet> sets;
    std::vector<DataValue> values;
  };
  const AttrIndex& AttrIndexFor(AttrId a) const;
  Status EnsureAttrIndex(AttrId a) const;
  /// Charges exactly (prepassed span count) + builds `slot` via
  /// `build`; OK and cached on reuse.
  Status EnsureIntervals(std::unique_ptr<IntervalMatrix>& slot,
                         Result<IntervalMatrix> (AxisIndex::*build)()
                             const) const;
  Result<IntervalMatrix> BuildEdgeIntervals() const;
  Result<IntervalMatrix> BuildDescendantIntervals() const;
  Result<IntervalMatrix> BuildSiblingIntervals() const;
  Result<IntervalMatrix> BuildSuccIntervals() const;
  Result<IntervalMatrix> BuildIdentityIntervals() const;

  const Tree* tree_;
  std::size_t n_;
  ResourceGovernor* governor_ = nullptr;
  Status status_;
  NodeSet empty_, full_, roots_, leaves_, first_children_, last_children_;
  std::vector<NodeSet> label_sets_;  // indexed by Symbol
  mutable std::vector<std::optional<AttrIndex>> attr_index_;
  mutable std::unique_ptr<IntervalMatrix> iedge_, idesc_, isib_, isucc_,
      iidentity_;
  mutable std::optional<std::vector<NodeId>> post_ranks_;
};

}  // namespace treewalk

#endif  // TREEWALK_TREE_AXIS_INDEX_H_
