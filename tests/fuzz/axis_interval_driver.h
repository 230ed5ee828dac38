#ifndef TREEWALK_TESTS_FUZZ_AXIS_INTERVAL_DRIVER_H_
#define TREEWALK_TESTS_FUZZ_AXIS_INTERVAL_DRIVER_H_

// Shared body of the axis-interval differential fuzzer: decode any byte
// string into a valid tree (TreeFromBytes), build the axis index, and
// cross-check every interval-encoded axis against Tree navigation, plus
// the pre/post-order numbering invariant, one compiled selector both
// materialized and seeded, and the seeded desc-E look-ahead.
// Driven by fuzz_axis_interval.cc under libFuzzer and replayed over the
// seed corpus by fuzz_corpus_test.cc in tier-1 builds.  Returns true iff
// every cross-check agrees; the tree decode itself can never fail, so
// any false is a found bug.

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "src/logic/compile.h"
#include "src/logic/parser.h"
#include "src/tree/axis_index.h"
#include "src/tree/generate.h"
#include "src/tree/interval_matrix.h"
#include "src/tree/tree.h"

namespace treewalk {

inline bool AxisIntervalAgrees(const std::uint8_t* data, std::size_t size,
                               int max_nodes = 512) {
  const Tree t = TreeFromBytes(data, size, max_nodes);
  const NodeId n = static_cast<NodeId>(t.size());
  AxisIndex index(t);

  // Every interval axis row must hold exactly the nodes Tree navigation
  // relates to its origin.
  const auto agrees = [&](Result<const IntervalMatrix*> intervals, auto holds) {
    if (!intervals.ok()) return false;
    const IntervalMatrix& im = *intervals.value();
    for (NodeId u = 0; u < n; ++u) {
      std::vector<NodeId> row;
      for (NodeId v = 0; v < n; ++v) {
        if (holds(u, v)) row.push_back(v);
      }
      if (im.RowVector(u) != row) return false;
    }
    return true;
  };
  const auto edge = [&](NodeId u, NodeId v) { return t.Parent(v) == u; };
  const auto desc = [&](NodeId u, NodeId v) {
    return t.IsStrictAncestor(u, v);
  };
  const auto sib = [&](NodeId u, NodeId v) {
    for (NodeId w = t.NextSibling(u); w != kNoNode; w = t.NextSibling(w)) {
      if (w == v) return true;
    }
    return false;
  };
  const auto succ = [&](NodeId u, NodeId v) { return t.NextSibling(u) == v; };
  const auto identity = [](NodeId u, NodeId v) { return u == v; };
  if (!agrees(index.TryEdgeIntervals(), edge)) return false;
  if (!agrees(index.TryDescendantIntervals(), desc)) return false;
  if (!agrees(index.TrySiblingIntervals(), sib)) return false;
  if (!agrees(index.TrySuccIntervals(), succ)) return false;
  if (!agrees(index.TryIdentityIntervals(), identity)) return false;

  // Pre/post-order numbering: desc(u, v) <=> u < v and rank[v] < rank[u].
  const std::vector<NodeId>& rank = index.PostorderRanks();
  for (NodeId u = 0; u < n; ++u) {
    for (NodeId v = 0; v < n; ++v) {
      if ((u < v && rank[v] < rank[u]) != t.IsStrictAncestor(u, v)) {
        return false;
      }
    }
  }

  // One compiled selector through the guarded join, materialized and
  // seeded, against direct navigation.
  Result<Formula> phi = ParseFormula("exists z (E(x, z) & E(z, y))");
  if (!phi.ok()) return false;
  Result<CompiledSelector> compiled = CompileSelector(index, *phi);
  if (!compiled.ok()) return false;
  Result<SeededSelector> seeded = PrepareSelector(index, *phi);
  if (!seeded.ok()) return false;
  for (NodeId u = 0; u < n; ++u) {
    std::vector<NodeId> grandchildren;
    for (NodeId c = t.FirstChild(u); c != kNoNode; c = t.NextSibling(c)) {
      for (NodeId g = t.FirstChild(c); g != kNoNode; g = t.NextSibling(g)) {
        grandchildren.push_back(g);
      }
    }
    std::sort(grandchildren.begin(), grandchildren.end());
    if (compiled.value().SelectFrom(u) != grandchildren) return false;
    Result<std::vector<NodeId>> from_u = seeded.value().SelectFrom(u);
    if (!from_u.ok() || from_u.value() != grandchildren) return false;
  }

  // The seeded desc-E look-ahead: a-labeled strict descendants with a
  // b-labeled child.
  Result<Formula> lookahead = ParseFormula(
      "exists z (desc(x, y) & lab(y, a) & E(y, z) & lab(z, b))");
  if (!lookahead.ok()) return false;
  Result<SeededSelector> seeded_lookahead = PrepareSelector(index, *lookahead);
  if (!seeded_lookahead.ok()) return false;
  const Symbol a = t.FindLabel("a");
  const Symbol b = t.FindLabel("b");
  const auto has_b_child = [&](NodeId v) {
    for (NodeId c = t.FirstChild(v); c != kNoNode; c = t.NextSibling(c)) {
      if (t.label(c) == b) return true;
    }
    return false;
  };
  for (NodeId u = 0; u < n; ++u) {
    std::vector<NodeId> expected;
    for (NodeId v = u + 1; v < n; ++v) {
      if (t.IsStrictAncestor(u, v) && t.label(v) == a && has_b_child(v)) {
        expected.push_back(v);
      }
    }
    Result<std::vector<NodeId>> from_u = seeded_lookahead.value().SelectFrom(u);
    if (!from_u.ok() || from_u.value() != expected) return false;
  }
  return true;
}

}  // namespace treewalk

#endif  // TREEWALK_TESTS_FUZZ_AXIS_INTERVAL_DRIVER_H_
