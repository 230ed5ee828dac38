#include "src/tree/tree.h"

#include <algorithm>
#include <cassert>

namespace treewalk {

// The view pointers (nodes_view_, attr_views_) alias this object's own
// vectors when the storage is owned, so the compiler-generated copy
// would leave them dangling at the source's buffers; copies rebind each
// view that pointed into the source's owned storage and keep mapped
// views (plus the mapping_ owner) verbatim.
Tree::Tree(const Tree& other)
    : nodes_(other.nodes_),
      labels_(other.labels_),
      attrs_(other.attrs_),
      attr_values_(other.attr_values_),
      nodes_view_(other.nodes_view_),
      node_count_(other.node_count_),
      attr_views_(other.attr_views_),
      postorder_view_(other.postorder_view_),
      mapping_(other.mapping_),
      snapshot_stats_(other.snapshot_stats_),
      values_(other.values_) {
  RebindOwnedViews(other);
}

Tree& Tree::operator=(const Tree& other) {
  if (this != &other) {
    Tree copy(other);
    *this = std::move(copy);
  }
  return *this;
}

Tree::Tree(Tree&& other) noexcept { *this = std::move(other); }

Tree& Tree::operator=(Tree&& other) noexcept {
  if (this == &other) return *this;
  // Ownedness must be read before the vectors move out of `other`.
  const bool nodes_owned = other.nodes_view_ == other.nodes_.data();
  std::vector<bool> column_owned(other.attr_views_.size());
  for (std::size_t a = 0; a < column_owned.size(); ++a) {
    column_owned[a] = other.attr_views_[a] == other.attr_values_[a].data();
  }
  nodes_ = std::move(other.nodes_);
  labels_ = std::move(other.labels_);
  attrs_ = std::move(other.attrs_);
  attr_values_ = std::move(other.attr_values_);
  node_count_ = other.node_count_;
  attr_views_ = std::move(other.attr_views_);
  postorder_view_ = other.postorder_view_;
  mapping_ = std::move(other.mapping_);
  snapshot_stats_ = std::move(other.snapshot_stats_);
  values_ = std::move(other.values_);
  // Vector moves keep heap buffers, so rebinding is a no-op for data
  // that was on the heap; it matters for empty/SSO-free edge cases and
  // keeps the invariant "owned views point at own storage" literal.
  nodes_view_ = nodes_owned ? nodes_.data() : other.nodes_view_;
  for (std::size_t a = 0; a < attr_views_.size(); ++a) {
    if (column_owned[a]) attr_views_[a] = attr_values_[a].data();
  }
  other.nodes_view_ = nullptr;
  other.node_count_ = 0;
  other.postorder_view_ = nullptr;
  return *this;
}

void Tree::RebindOwnedViews(const Tree& other) {
  if (other.nodes_view_ == other.nodes_.data()) nodes_view_ = nodes_.data();
  for (std::size_t a = 0; a < attr_views_.size(); ++a) {
    if (other.attr_views_[a] == other.attr_values_[a].data()) {
      attr_views_[a] = attr_values_[a].data();
    }
  }
}

DataValue* Tree::MutableColumn(AttrId a) {
  auto& owned = attr_values_[static_cast<std::size_t>(a)];
  const DataValue*& view = attr_views_[static_cast<std::size_t>(a)];
  if (view != owned.data()) {
    // Snapshot-mapped column: detach copy-on-write.  Other trees (and
    // the file) sharing the mapping are unaffected.
    owned.assign(view, view + node_count_);
    view = owned.data();
  }
  return owned.data();
}

int Tree::Depth(NodeId u) const {
  int depth = 0;
  for (NodeId p = Parent(u); p != kNoNode; p = Parent(p)) ++depth;
  return depth;
}

AttrId Tree::AddAttribute(std::string_view name) {
  std::int64_t existing = attrs_.Find(name);
  if (existing >= 0) return existing;
  AttrId id = attrs_.Intern(name);
  attr_values_.emplace_back(node_count_, DataValue{0});
  attr_views_.push_back(attr_values_.back().data());
  return id;
}

std::vector<DataValue> Tree::ActiveDomain() const {
  std::vector<DataValue> out;
  for (const DataValue* column : attr_views_) {
    out.insert(out.end(), column, column + node_count_);
  }
  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
  return out;
}

AttrId AssignUniqueIds(Tree& tree, std::string_view name) {
  AttrId id = tree.AddAttribute(name);
  for (NodeId u = 0; u < static_cast<NodeId>(tree.size()); ++u) {
    tree.set_attr(id, u, u);
  }
  return id;
}

TreeBuilder::Ref TreeBuilder::AddRoot(std::string_view label) {
  assert(protos_.empty() && "AddRoot called twice");
  protos_.push_back(Proto{std::string(label), {}, {}});
  return 0;
}

TreeBuilder::Ref TreeBuilder::AddChild(Ref parent, std::string_view label) {
  assert(parent >= 0 && parent < static_cast<Ref>(protos_.size()));
  Ref ref = static_cast<Ref>(protos_.size());
  protos_.push_back(Proto{std::string(label), {}, {}});
  protos_[static_cast<std::size_t>(parent)].children.push_back(ref);
  return ref;
}

void TreeBuilder::SetAttr(Ref node, std::string_view name, DataValue value) {
  assert(node >= 0 && node < static_cast<Ref>(protos_.size()));
  protos_[static_cast<std::size_t>(node)].attrs.emplace_back(std::string(name),
                                                             value);
}

void TreeBuilder::SetAttrString(Ref node, std::string_view name,
                                std::string_view text) {
  SetAttr(node, name, values_->ValueFor(text));
}

PreorderTreeWriter::PreorderTreeWriter(std::size_t expected_nodes) {
  tree_.nodes_.reserve(expected_nodes);
}

NodeId PreorderTreeWriter::Open(Symbol label, NodeId parent) {
  const NodeId id = static_cast<NodeId>(tree_.nodes_.size());
  Tree::Node node;
  node.label = label;
  node.parent = parent;
  if (parent != kNoNode) {
    Tree::Node& p = tree_.nodes_[static_cast<std::size_t>(parent)];
    node.child_index = p.num_children;
    node.prev_sibling = p.last_child;
    if (p.last_child != kNoNode) {
      tree_.nodes_[static_cast<std::size_t>(p.last_child)].next_sibling = id;
    } else {
      p.first_child = id;
    }
    p.last_child = id;
    ++p.num_children;
  }
  tree_.nodes_.push_back(node);
  return id;
}

AttrId PreorderTreeWriter::AddAttribute(std::string_view name,
                                        std::vector<DataValue> values) {
  assert(tree_.attrs_.Find(name) < 0 && "attribute added twice");
  const AttrId id = tree_.attrs_.Intern(name);
  tree_.attr_values_.push_back(std::move(values));
  return id;
}

Tree PreorderTreeWriter::Finish() && {
  tree_.node_count_ = tree_.nodes_.size();
  tree_.nodes_view_ = tree_.nodes_.data();
  for (const std::vector<DataValue>& column : tree_.attr_values_) {
    assert(column.size() == tree_.node_count_);
    tree_.attr_views_.push_back(column.data());
  }
  return std::move(tree_);
}

Tree TreeBuilder::Build(std::vector<NodeId>* ref_to_node) const {
  if (protos_.empty()) {
    Tree tree;
    tree.values_ = values_;
    return tree;
  }

  // Lay nodes out in document order with an explicit DFS.
  std::vector<NodeId> mapping(protos_.size(), kNoNode);
  PreorderTreeWriter writer(protos_.size());

  struct Frame {
    Ref ref;
    std::size_t next_child = 0;
  };
  std::vector<Frame> stack;

  auto emit = [&](Ref ref, NodeId parent) {
    const NodeId id = writer.Open(
        writer.InternLabel(protos_[static_cast<std::size_t>(ref)].label),
        parent);
    mapping[static_cast<std::size_t>(ref)] = id;
  };

  emit(0, kNoNode);
  stack.push_back(Frame{0});
  while (!stack.empty()) {
    Frame& frame = stack.back();
    const Proto& proto = protos_[static_cast<std::size_t>(frame.ref)];
    if (frame.next_child < proto.children.size()) {
      Ref child = proto.children[frame.next_child++];
      emit(child, mapping[static_cast<std::size_t>(frame.ref)]);
      stack.push_back(Frame{child});
    } else {
      writer.Close(mapping[static_cast<std::size_t>(frame.ref)]);
      stack.pop_back();
    }
  }
  // The shape is final (AddAttribute below sizes columns off it).
  Tree tree = std::move(writer).Finish();
  tree.values_ = values_;

  // Attribute columns.
  for (std::size_t ref = 0; ref < protos_.size(); ++ref) {
    for (const auto& [name, value] : protos_[ref].attrs) {
      AttrId a = tree.AddAttribute(name);
      tree.set_attr(a, mapping[ref], value);
    }
  }

  if (ref_to_node != nullptr) *ref_to_node = std::move(mapping);
  return tree;
}

}  // namespace treewalk
