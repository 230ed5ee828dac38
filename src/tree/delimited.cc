#include "src/tree/delimited.h"

#include <cassert>
#include <string_view>
#include <vector>

namespace treewalk {

bool IsDelimiterLabel(std::string_view label) {
  return label == kTopLabel || label == kOpenLabel || label == kCloseLabel ||
         label == kLeafLabel;
}

DelimitedTree Delimit(const Tree& tree, std::vector<NodeId>* postorder) {
  assert(!tree.empty());
  const NodeId n = static_cast<NodeId>(tree.size());
  // Every node gains one delimiter child (#leaf) if it is a leaf and two
  // (#open, #close) otherwise; #top and its #open / #close add three.
  std::size_t leaves = 0;
  for (NodeId u = 0; u < n; ++u) leaves += tree.IsLeaf(u) ? 1 : 0;
  const std::size_t size = 3 + 3 * tree.size() - leaves;

  DelimitedTree result;
  result.to_delimited.resize(tree.size());
  result.to_original.reserve(size);
  PreorderTreeWriter writer(size);
  // A node closes once its whole subtree is written, so the close order
  // is the post-order.
  if (postorder != nullptr) postorder->assign(size, kNoNode);
  NodeId next_rank = 0;
  const auto close = [&](NodeId d) {
    writer.Close(d);
    if (postorder != nullptr) {
      (*postorder)[static_cast<std::size_t>(d)] = next_rank++;
    }
  };

  // Labels are interned at first use in delim(t)'s document order, the
  // order a TreeBuilder would give them, so symbols match across
  // constructions (content hashes and cache keys depend on it).
  std::vector<Symbol> symbol_of(tree.labels().size(), -1);
  Symbol top_sym = -1, open_sym = -1, close_sym = -1, leaf_sym = -1;
  const auto intern = [&writer](Symbol& cached, std::string_view name) {
    if (cached < 0) cached = writer.InternLabel(name);
    return cached;
  };
  const auto delimiter = [&](Symbol& cached, std::string_view name,
                             NodeId parent) {
    close(writer.Open(intern(cached, name), parent));
    result.to_original.push_back(kNoNode);
  };
  const auto close_block = [&](NodeId u) {
    const NodeId d = result.to_delimited[static_cast<std::size_t>(u)];
    delimiter(close_sym, kCloseLabel, d);
    close(d);
  };

  // One pass over t in document order.  `open_nodes` holds the original
  // ancestors whose #close is still to come; u's parent is on top.
  const NodeId wtop = writer.Open(intern(top_sym, kTopLabel), kNoNode);
  result.to_original.push_back(kNoNode);
  delimiter(open_sym, kOpenLabel, wtop);
  std::vector<NodeId> open_nodes;
  for (NodeId u = 0; u < n; ++u) {
    const NodeId parent = tree.Parent(u);
    while (!open_nodes.empty() && open_nodes.back() != parent) {
      close_block(open_nodes.back());
      open_nodes.pop_back();
    }
    const Symbol s = tree.label(u);
    const NodeId d = writer.Open(
        intern(symbol_of[static_cast<std::size_t>(s)], tree.LabelName(s)),
        parent == kNoNode
            ? wtop
            : result.to_delimited[static_cast<std::size_t>(parent)]);
    result.to_delimited[static_cast<std::size_t>(u)] = d;
    result.to_original.push_back(u);
    if (tree.IsLeaf(u)) {
      delimiter(leaf_sym, kLeafLabel, d);
      close(d);
    } else {
      delimiter(open_sym, kOpenLabel, d);
      open_nodes.push_back(u);
    }
  }
  while (!open_nodes.empty()) {
    close_block(open_nodes.back());
    open_nodes.pop_back();
  }
  delimiter(close_sym, kCloseLabel, wtop);
  close(wtop);

  // Attribute columns keep t's ids; delimiters carry kBottom.
  for (AttrId a = 0; a < static_cast<AttrId>(tree.num_attributes()); ++a) {
    std::vector<DataValue> column(size);
    for (std::size_t d = 0; d < size; ++d) {
      const NodeId u = result.to_original[d];
      column[d] = u == kNoNode ? kBottom : tree.attr(a, u);
    }
    writer.AddAttribute(tree.attributes().NameOf(a), std::move(column));
  }
  result.tree = std::move(writer).Finish();
  result.tree.AdoptValues(tree);
  return result;
}

}  // namespace treewalk
