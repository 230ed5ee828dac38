#ifndef TREEWALK_TREE_TREE_H_
#define TREEWALK_TREE_TREE_H_

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "src/common/data_value.h"
#include "src/common/interner.h"

namespace treewalk {

/// Index of a node in a Tree.  Nodes are stored in document order
/// (pre-order), so comparing NodeIds compares document positions.
using NodeId = std::int32_t;
inline constexpr NodeId kNoNode = -1;

/// Handle of a node label in a tree's label interner.
using Symbol = std::int64_t;
/// Handle of an attribute name in a tree's attribute interner.
using AttrId = std::int64_t;
inline constexpr AttrId kNoAttr = -1;

/// An attributed unranked Sigma-tree (Definition 2.1 of the paper): every
/// node carries a label from a finite alphabet Sigma and, for each
/// attribute name in a finite set A, a value from the data domain D.
///
/// Storage is a pre-order arena: NodeId 0 is the root and ids increase in
/// document order.  Navigation (parent / first child / last child /
/// next & previous sibling) is O(1), matching the moves available to
/// tree-walking automata (Section 3).
///
/// Trees are immutable after construction except for attribute values,
/// which may be overwritten in place (labels and shape are fixed).
/// Build trees with TreeBuilder, ParseTerm(), ParseXml(), or load a
/// snapshot (src/tree/snapshot.h).
///
/// Storage is indirected through views: an ordinary tree owns its node
/// records and attribute columns (the views point at them), while a
/// tree loaded from a snapshot aliases the mapped file (`mapping_`
/// keeps the region alive) with zero copying.  Mutating an attribute of
/// a mapped tree detaches that one column copy-on-write; node records
/// never need detaching because shape and labels are immutable.
class Tree {
 public:
  Tree() = default;

  Tree(const Tree& other);
  Tree& operator=(const Tree& other);
  Tree(Tree&& other) noexcept;
  Tree& operator=(Tree&& other) noexcept;

  bool empty() const { return node_count_ == 0; }
  /// Number of nodes, |Dom(t)|.
  std::size_t size() const { return node_count_; }

  NodeId root() const { return empty() ? kNoNode : 0; }
  bool Valid(NodeId u) const {
    return u >= 0 && u < static_cast<NodeId>(node_count_);
  }

  // --- Shape navigation (all O(1)). ---------------------------------

  Symbol label(NodeId u) const { return node(u).label; }
  NodeId Parent(NodeId u) const { return node(u).parent; }
  NodeId FirstChild(NodeId u) const { return node(u).first_child; }
  NodeId LastChild(NodeId u) const { return node(u).last_child; }
  NodeId NextSibling(NodeId u) const { return node(u).next_sibling; }
  NodeId PrevSibling(NodeId u) const { return node(u).prev_sibling; }
  /// 0-based position of `u` among its siblings (0 for the root).
  std::int32_t ChildIndex(NodeId u) const { return node(u).child_index; }
  std::int32_t ChildCount(NodeId u) const { return node(u).num_children; }

  bool IsRoot(NodeId u) const { return u == 0; }
  bool IsLeaf(NodeId u) const { return node(u).first_child == kNoNode; }
  bool IsFirstChild(NodeId u) const { return node(u).prev_sibling == kNoNode; }
  bool IsLastChild(NodeId u) const { return node(u).next_sibling == kNoNode; }

  /// The paper's descendant relation u -< v: true iff `v` is a *strict*
  /// descendant of `u`.  O(1) via pre-order subtree intervals.
  bool IsStrictAncestor(NodeId u, NodeId v) const {
    return u < v && v < node(u).subtree_end;
  }

  /// One past the last node of u's subtree in document order.
  NodeId SubtreeEnd(NodeId u) const { return node(u).subtree_end; }

  /// Depth of a node (root has depth 0).  O(depth).
  int Depth(NodeId u) const;

  // --- Labels and attributes. ----------------------------------------

  /// Interner for label names.  Automata and formulas refer to labels by
  /// string; resolve them once per tree with LabelOf()/FindLabel().
  const Interner& labels() const { return labels_; }
  const Interner& attributes() const { return attrs_; }

  /// Handle of label `name`, or -1 if no node uses it.
  Symbol FindLabel(std::string_view name) const { return labels_.Find(name); }
  /// Handle of attribute `name`, or kNoAttr if the tree has no such
  /// attribute column.
  AttrId FindAttribute(std::string_view name) const {
    return attrs_.Find(name);
  }
  const std::string& LabelName(Symbol s) const { return labels_.NameOf(s); }

  std::size_t num_attributes() const { return attr_values_.size(); }

  /// Value of attribute `a` at node `u`.  Every attribute is total
  /// (Definition 2.1); unset values default to 0.
  DataValue attr(AttrId a, NodeId u) const {
    return attr_views_[static_cast<std::size_t>(a)][static_cast<std::size_t>(u)];
  }
  void set_attr(AttrId a, NodeId u, DataValue v) {
    MutableColumn(a)[static_cast<std::size_t>(u)] = v;
  }

  /// Adds an attribute column named `name` (all values 0) if absent;
  /// returns its id either way.
  AttrId AddAttribute(std::string_view name);

  /// Interner mapping textual attribute values into D.  Shared by parsing
  /// and rendering; mutable because rendering-side interning of new
  /// strings does not change tree semantics.
  ValueInterner& values() const { return *values_; }

  /// Shares `other`'s value interner (dropping this tree's own), so
  /// interned-string attribute values copied from `other` keep their
  /// meaning.  Used by Delimit(): delim(t) carries t's raw attribute
  /// values and must resolve them in the same handle space.
  void AdoptValues(const Tree& other) { values_ = other.values_; }

  /// All distinct attribute values occurring in the tree (D_active of
  /// Section 3), sorted.
  std::vector<DataValue> ActiveDomain() const;

  /// Post-order ranks preloaded from a snapshot (one NodeId per node),
  /// or nullptr for a parsed/built tree.  AxisIndex adopts these
  /// instead of re-running its numbering DFS (src/tree/snapshot.h).
  const NodeId* snapshot_postorder() const { return postorder_view_; }

  /// Whole-tree statistics preloaded from a snapshot's stats section,
  /// or nullptr for a parsed/built tree.  `twq explain`'s estimator
  /// (src/logic/planner.h) uses these instead of re-scanning the tree;
  /// GetOrComputeTreeStats (src/tree/tree_stats.h) is the one caller.
  const struct TreeStats* snapshot_stats() const {
    return snapshot_stats_.get();
  }

 private:
  friend class PreorderTreeWriter;
  friend class TreeBuilder;
  friend class SnapshotCodec;  // src/tree/snapshot.cc: (de)serialization

  struct Node {
    Symbol label = 0;
    NodeId parent = kNoNode;
    NodeId first_child = kNoNode;
    NodeId last_child = kNoNode;
    NodeId next_sibling = kNoNode;
    NodeId prev_sibling = kNoNode;
    NodeId subtree_end = kNoNode;
    std::int32_t child_index = 0;
    std::int32_t num_children = 0;
  };

  const Node& node(NodeId u) const {
    return nodes_view_[static_cast<std::size_t>(u)];
  }
  /// Column `a` for writing; detaches a snapshot-mapped column into
  /// owned storage first (copy-on-write), so mutation never touches the
  /// shared mapped region.
  DataValue* MutableColumn(AttrId a);
  /// Points the node/column views at the owned vectors (after a copy).
  void RebindOwnedViews(const Tree& other);

  // Owned storage.  For a snapshot-backed tree, `nodes_` (and any
  // column never written to) stays empty and the views below alias the
  // mapped region instead.
  std::vector<Node> nodes_;
  Interner labels_;
  Interner attrs_;
  std::vector<std::vector<DataValue>> attr_values_;  // [attr][node]

  // Views: always valid for u < node_count_, whether the bytes are
  // owned or mapped.
  const Node* nodes_view_ = nullptr;
  std::size_t node_count_ = 0;
  std::vector<const DataValue*> attr_views_;  // [attr] -> column base
  const NodeId* postorder_view_ = nullptr;    // snapshot post-order ranks

  /// Keeps a mapped snapshot region (or an in-memory image) alive for
  /// as long as any view above aliases it; null for owned trees.
  std::shared_ptr<const void> mapping_;

  /// Decoded stats section of a snapshot-backed tree (immutable, shared
  /// by copies); null for parsed/built trees.
  std::shared_ptr<const struct TreeStats> snapshot_stats_;

  std::shared_ptr<ValueInterner> values_ =
      std::make_shared<ValueInterner>();
};

/// Assigns document-order ranks (0 for the root) as the values of
/// attribute `name`, creating it if needed.  This realizes the Section 7
/// assumption of a unique ID attribute.  Returns the attribute id.
AttrId AssignUniqueIds(Tree& tree, std::string_view name = "id");

/// Writes a tree's node records in document order: each Open() appends
/// the next node of a pre-order traversal, and Close() ends its subtree.
/// This is the one place that links node records (parent, siblings,
/// child index and count, subtree end); TreeBuilder::Build lays its
/// protos out through it, and ParseTerm() (src/tree/term_io.h) and
/// Delimit() (src/tree/delimited.h) write their trees with it in one
/// pass, with no per-node protos or label strings.
///
///   PreorderTreeWriter w(2);
///   NodeId r = w.Open(w.InternLabel("a"), kNoNode);
///   w.Close(w.Open(w.InternLabel("b"), r));
///   w.Close(r);
///   Tree t = std::move(w).Finish();
class PreorderTreeWriter {
 public:
  /// `expected_nodes` reserves the node records up front.
  explicit PreorderTreeWriter(std::size_t expected_nodes = 0);

  /// Label handle for `name`; symbols number labels in first-intern
  /// order.
  Symbol InternLabel(std::string_view name) {
    return tree_.labels_.Intern(name);
  }

  /// Appends the next node in document order as the last child of
  /// `parent`, which must be open (kNoNode for the root).
  NodeId Open(Symbol label, NodeId parent);
  /// Ends `u`'s subtree: every node opened since `u` is a descendant.
  void Close(NodeId u) {
    tree_.nodes_[static_cast<std::size_t>(u)].subtree_end =
        static_cast<NodeId>(tree_.nodes_.size());
  }

  /// Adds attribute column `name` (a new name) holding `values`, one
  /// per node in document order; Finish() checks the length.
  AttrId AddAttribute(std::string_view name, std::vector<DataValue> values);

  /// Data value of string `text` in the finished tree's value interner.
  DataValue InternValue(std::string_view text) {
    return tree_.values_->ValueFor(text);
  }

  /// The finished tree; call once every node is closed.  Its value
  /// interner holds exactly the strings passed to InternValue().
  Tree Finish() &&;

 private:
  Tree tree_;
};

/// Incremental tree constructor.  Children may be appended to any node in
/// any order; Build() lays the result out in document order.
///
///   TreeBuilder b;
///   auto r = b.AddRoot("a");
///   auto c = b.AddChild(r, "b");
///   b.SetAttr(c, "id", 7);
///   Tree t = b.Build();
class TreeBuilder {
 public:
  /// Opaque builder-side node handle (not a Tree NodeId).
  using Ref = std::int32_t;

  TreeBuilder() = default;

  /// Creates the root; must be called first and exactly once.
  Ref AddRoot(std::string_view label);
  /// Appends a new last child under `parent`.
  Ref AddChild(Ref parent, std::string_view label);
  /// Sets attribute `name` at `node` to a numeric data value.
  void SetAttr(Ref node, std::string_view name, DataValue value);
  /// Sets attribute `name` at `node` to (the interned handle of) `text`.
  void SetAttrString(Ref node, std::string_view name, std::string_view text);

  std::size_t size() const { return protos_.size(); }

  /// Produces the tree.  `ref_to_node`, if non-null, receives the mapping
  /// from builder Refs to document-order NodeIds.
  Tree Build(std::vector<NodeId>* ref_to_node = nullptr) const;

 private:
  struct Proto {
    std::string label;
    std::vector<Ref> children;
    std::vector<std::pair<std::string, DataValue>> attrs;
  };
  std::vector<Proto> protos_;
  std::shared_ptr<ValueInterner> values_ =
      std::make_shared<ValueInterner>();
};

}  // namespace treewalk

#endif  // TREEWALK_TREE_TREE_H_
