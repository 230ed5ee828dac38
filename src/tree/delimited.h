#ifndef TREEWALK_TREE_DELIMITED_H_
#define TREEWALK_TREE_DELIMITED_H_

#include <string_view>
#include <vector>

#include "src/tree/tree.h"

namespace treewalk {

/// Labels of the four tree delimiters of Section 3.  The paper draws them
/// as geometric glyphs; we spell them as reserved '#'-prefixed labels,
/// which ordinary alphabets cannot contain.
inline constexpr std::string_view kTopLabel = "#top";      // nabla (root cap)
inline constexpr std::string_view kOpenLabel = "#open";    // left delimiter
inline constexpr std::string_view kCloseLabel = "#close";  // right delimiter
inline constexpr std::string_view kLeafLabel = "#leaf";    // leaf cap

/// True if `label` names one of the four delimiters.
bool IsDelimiterLabel(std::string_view label);

/// Result of delimiting a tree: the transformed tree plus the node
/// correspondence in both directions.
struct DelimitedTree {
  Tree tree;
  /// original NodeId -> delimited NodeId.
  std::vector<NodeId> to_delimited;
  /// delimited NodeId -> original NodeId, or kNoNode for delimiters.
  std::vector<NodeId> to_original;

  /// True if node `u` of `tree` is a delimiter.
  bool IsDelimiter(NodeId u) const { return to_original[u] == kNoNode; }
};

/// Computes delim(t) per Section 3: a new root #top whose children are
/// #open, the original root, #close; every original node with children
/// gets #open / #close wrapped around them; every original leaf gets a
/// single #leaf child.  Every attribute of a delimiter holds kBottom.
///
/// The walk-visible consequences: a node is a (original) leaf iff its
/// first child is #leaf, first/last child tests become label tests on the
/// left/right sibling, and the root is the unique child between #open and
/// #close under #top.
///
/// If `postorder` is non-null it receives delim(t)'s post-order rank of
/// every node, numbered in the order the one pass closes the nodes (the
/// snapshot writer persists them; src/tree/snapshot.h).
DelimitedTree Delimit(const Tree& tree,
                      std::vector<NodeId>* postorder = nullptr);

}  // namespace treewalk

#endif  // TREEWALK_TREE_DELIMITED_H_
