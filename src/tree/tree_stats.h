#ifndef TREEWALK_TREE_TREE_STATS_H_
#define TREEWALK_TREE_TREE_STATS_H_

#include <cstdint>
#include <vector>

#include "src/tree/tree.h"

namespace treewalk {

/// Cheap whole-tree summary statistics for `twq explain`'s estimator
/// (src/logic/planner.h); runs do not compute them.  Every field is
/// exact, not sampled: the axis atoms of the tree vocabulary have
/// closed-form cardinalities in these terms (desc = sum_depths, E =
/// edges, sib = sib_pairs, succ = succ_pairs), which is what makes the
/// per-operator estimates exact at the leaves.
///
/// Computed in one O(n) pass (plus O(n log n) per attribute column for
/// distinct-value counts) by ComputeTreeStats(), or preloaded from a
/// `.twsnap` stats section so snapshot-backed trees skip the scan
/// entirely (Tree::snapshot_stats(), docs/SNAPSHOT.md).
struct TreeStats {
  std::int64_t nodes = 0;
  /// Edges = nodes - 1 (kept explicit so an empty tree reads 0).
  std::int64_t edges = 0;
  /// Maximum node depth; the root has depth 0.
  std::int64_t max_depth = 0;
  /// Sum of Depth(u) over all nodes == |{(u, v) : desc(u, v)}|.
  std::int64_t sum_depths = 0;
  std::int64_t leaves = 0;
  /// Nodes with at least one child.
  std::int64_t parents = 0;
  std::int64_t max_fanout = 0;
  /// |{(u, v) : sib(u, v)}| = sum over families of k*(k-1)/2.
  std::int64_t sib_pairs = 0;
  /// |{(u, v) : succ(u, v)}| = sum over families of k-1.
  std::int64_t succ_pairs = 0;
  /// Nodes per label, indexed by the tree's label Symbol.
  std::vector<std::int64_t> label_counts;
  /// Distinct values per attribute column, indexed by AttrId.
  std::vector<std::int64_t> attr_distinct;

  /// Count for a label symbol; 0 for out-of-range (unknown label).
  std::int64_t LabelCount(std::int64_t symbol) const {
    return symbol >= 0 &&
                   symbol < static_cast<std::int64_t>(label_counts.size())
               ? label_counts[static_cast<std::size_t>(symbol)]
               : 0;
  }
  /// Largest single-label population (selectivity floor for lab atoms).
  std::int64_t MaxLabelCount() const;
  /// Mean children per internal node; 0 for a single-node tree.
  double AvgFanout() const {
    return parents > 0 ? static_cast<double>(edges) / parents : 0.0;
  }

  friend bool operator==(const TreeStats&, const TreeStats&) = default;
};

/// Scans `tree` and returns its exact statistics.  O(n) time and O(n)
/// transient memory for the depth pass; attribute distinct counts sort
/// a copy of each column (O(n log n) per attribute).
TreeStats ComputeTreeStats(const Tree& tree);

/// Stats for planning: the snapshot-preloaded view when `tree` carries
/// one, else a fresh scan.  `scratch` receives the computed copy in the
/// scan case and must outlive the returned pointer.
const TreeStats* GetOrComputeTreeStats(const Tree& tree, TreeStats& scratch);

}  // namespace treewalk

#endif  // TREEWALK_TREE_TREE_STATS_H_
