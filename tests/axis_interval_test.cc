// Metamorphic and structural tests for the interval-encoded axis layer
// (src/tree/axis_index.h, src/tree/interval_matrix.h) and the
// interval-backed compiled evaluator on top of it:
//
//   - the pre/post-order numbering invariant desc(u, v) <=> u < v and
//     post[v] < post[u] that every interval row is derived from;
//   - interval axis rows versus dense matrices built from Tree
//     navigation alone;
//   - linear span counts on adversarial shapes (chains, full trees,
//     document-shaped trees) — the O(n) claim, not just correctness;
//   - selector stability under label-preserving sibling reorder for
//     order-axis-free formulas, with answers mapped through the exact
//     old-id -> new-id permutation;
//   - monotone shrinkage of positive-existential selectors under leaf
//     deletion;
//   - the million-node budget wall: interval compilation fits a linear
//     memory budget far below what one n-bit-per-row relation needs;
//   - per-thread AxisIndex isolation under concurrent compilation.
#include <algorithm>
#include <cstdint>
#include <random>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "src/common/governor.h"
#include "src/common/result.h"
#include "src/logic/compile.h"
#include "src/logic/formula.h"
#include "src/logic/parser.h"
#include "src/logic/tree_eval.h"
#include "src/tree/axis_index.h"
#include "src/tree/generate.h"
#include "src/tree/interval_matrix.h"
#include "src/tree/tree.h"

namespace treewalk {
namespace {

Formula Parse(const std::string& source) {
  Result<Formula> parsed = ParseFormula(source);
  EXPECT_TRUE(parsed.ok()) << source << ": " << parsed.status();
  return std::move(parsed).value();
}

std::vector<NodeId> Children(const Tree& t, NodeId u) {
  std::vector<NodeId> kids;
  for (NodeId c = t.FirstChild(u); c != kNoNode; c = t.NextSibling(c)) {
    kids.push_back(c);
  }
  return kids;
}

Tree RandomUnattributedTree(std::mt19937& rng, int num_nodes,
                            int max_children = 4) {
  RandomTreeOptions options;
  options.num_nodes = num_nodes;
  options.max_children = max_children;
  options.attributes = {};
  return RandomTree(rng, options);
}

// ---------------------------------------------------------------------
// Pre/post-order numbering.

TEST(AxisIntervalNumbering, PostorderRanksCharacterizeAncestry) {
  std::mt19937 rng(11);
  std::vector<Tree> trees;
  trees.push_back(FullTree(1, 40));  // chain
  trees.push_back(FullTree(3, 4));
  trees.push_back(XmlLikeTree(rng, 120));
  for (int i = 0; i < 8; ++i) {
    trees.push_back(RandomUnattributedTree(rng, 5 + 20 * i));
  }

  for (const Tree& t : trees) {
    const NodeId n = static_cast<NodeId>(t.size());
    AxisIndex index(t);
    Result<const std::vector<NodeId>*> governed = index.TryPostorderRanks();
    ASSERT_TRUE(governed.ok()) << governed.status();
    const std::vector<NodeId>& rank = **governed;
    ASSERT_EQ(rank, index.PostorderRanks());
    ASSERT_EQ(rank.size(), t.size());

    // The ranks are a permutation of [0, n).
    std::vector<NodeId> sorted = rank;
    std::sort(sorted.begin(), sorted.end());
    for (NodeId i = 0; i < n; ++i) ASSERT_EQ(sorted[i], i);

    // desc(u, v) <=> u < v (pre-order) and rank[v] < rank[u]
    // (post-order): the two-numbering ancestry criterion every
    // interval row rests on.  NodeIds are pre-order ranks already.
    for (NodeId u = 0; u < n; ++u) {
      for (NodeId v = 0; v < n; ++v) {
        const bool by_ranks = u < v && rank[v] < rank[u];
        ASSERT_EQ(by_ranks, t.IsStrictAncestor(u, v))
            << "u=" << u << " v=" << v << " n=" << n;
      }
      // And the descendant interval is exactly (u, SubtreeEnd(u)).
      for (NodeId v = u + 1; v < t.SubtreeEnd(u); ++v) {
        ASSERT_TRUE(t.IsStrictAncestor(u, v));
      }
      if (t.SubtreeEnd(u) < n) {
        ASSERT_FALSE(t.IsStrictAncestor(u, t.SubtreeEnd(u)));
      }
    }
  }
}

// ---------------------------------------------------------------------
// Interval axis rows versus the navigation oracle.

/// An axis relation as a test-local dense boolean matrix, built from
/// Tree navigation alone (Parent, NextSibling, IsStrictAncestor) — no
/// AxisIndex code involved.
using DenseRelation = std::vector<std::vector<bool>>;

DenseRelation NavigationMatrix(const Tree& t,
                               bool (*holds)(const Tree&, NodeId, NodeId)) {
  const NodeId n = static_cast<NodeId>(t.size());
  DenseRelation m(t.size(), std::vector<bool>(t.size(), false));
  for (NodeId u = 0; u < n; ++u) {
    for (NodeId v = 0; v < n; ++v) m[u][v] = holds(t, u, v);
  }
  return m;
}

bool EdgeHolds(const Tree& t, NodeId u, NodeId v) { return t.Parent(v) == u; }
bool DescendantHolds(const Tree& t, NodeId u, NodeId v) {
  return t.IsStrictAncestor(u, v);
}
bool SiblingHolds(const Tree& t, NodeId u, NodeId v) {
  for (NodeId w = t.NextSibling(u); w != kNoNode; w = t.NextSibling(w)) {
    if (w == v) return true;
  }
  return false;
}
bool SuccHolds(const Tree& t, NodeId u, NodeId v) {
  return t.NextSibling(u) == v;
}
bool IdentityHolds(const Tree&, NodeId u, NodeId v) { return u == v; }

TEST(AxisIntervalAxes, IntervalRowsMatchDenseMatrices) {
  std::mt19937 rng(23);
  std::vector<Tree> trees;
  trees.push_back(FullTree(1, 15));
  trees.push_back(FullTree(4, 3));
  trees.push_back(XmlLikeTree(rng, 90));
  for (int i = 0; i < 12; ++i) {
    trees.push_back(RandomUnattributedTree(rng, 3 + 11 * i, 2 + i % 5));
  }

  for (const Tree& t : trees) {
    AxisIndex index(t);
    const NodeId n = static_cast<NodeId>(t.size());
    const std::pair<Result<const IntervalMatrix*>, DenseRelation> axes[] = {
        {index.TryEdgeIntervals(), NavigationMatrix(t, EdgeHolds)},
        {index.TryDescendantIntervals(), NavigationMatrix(t, DescendantHolds)},
        {index.TrySiblingIntervals(), NavigationMatrix(t, SiblingHolds)},
        {index.TrySuccIntervals(), NavigationMatrix(t, SuccHolds)},
        {index.TryIdentityIntervals(), NavigationMatrix(t, IdentityHolds)},
    };
    for (const auto& [intervals, dense] : axes) {
      ASSERT_TRUE(intervals.ok()) << intervals.status();
      const IntervalMatrix& im = **intervals;
      for (NodeId u = 0; u < n; ++u) {
        std::vector<NodeId> row;
        for (NodeId v = 0; v < n; ++v) {
          ASSERT_EQ(im.test(u, v), dense[u][v]) << "u=" << u << " v=" << v;
          if (dense[u][v]) row.push_back(v);
        }
        ASSERT_EQ(im.RowVector(u), row) << "row " << u;
        ASSERT_EQ(im.RowSet(u).ToVector(), row) << "row " << u;
        ASSERT_EQ(im.RowWidth(u), static_cast<std::int64_t>(row.size()));
      }
    }
  }
}

TEST(AxisIntervalAxes, SpanCountsStayLinearOnAdversarialShapes) {
  std::mt19937 rng(31);
  std::vector<Tree> trees;
  trees.push_back(FullTree(1, 1999));        // chain: worst case for desc
  trees.push_back(FullTree(2, 10));          // 2047 nodes, bushy
  trees.push_back(XmlLikeTree(rng, 2000));   // long flat sibling runs
  trees.push_back(RandomUnattributedTree(rng, 2000, 6));

  for (const Tree& t : trees) {
    AxisIndex index(t);
    const std::size_t n = t.size();
    const Result<const IntervalMatrix*> axes[] = {
        index.TryEdgeIntervals(),     index.TryDescendantIntervals(),
        index.TrySiblingIntervals(),  index.TrySuccIntervals(),
        index.TryIdentityIntervals(),
    };
    for (const auto& intervals : axes) {
      ASSERT_TRUE(intervals.ok()) << intervals.status();
      const IntervalMatrix& im = **intervals;
      // Every tau axis is span-sparse on the pre-order arena: at most
      // a couple of spans per row amortized, independent of shape.
      EXPECT_LE(im.StoredSpans(), 2 * n + 4);
      // And the footprint beats one n-bit-per-row bitset relation
      // (n * ceil(n/64) words) outright at n=2000.
      EXPECT_LT(im.ApproxBytes(),
                static_cast<std::int64_t>(n * ((n + 63) / 64) * 8));
    }
  }
}

// ---------------------------------------------------------------------
// Metamorphic: sibling reorder.

// Rebuilds `t` with each node's child list rotated by a random amount,
// returning the new tree and the exact old-NodeId -> new-NodeId map
// (TreeBuilder::Build exposes the builder-Ref -> document-order-id
// mapping, so no structural matching is needed).
std::pair<Tree, std::vector<NodeId>> ReorderSiblings(const Tree& t,
                                                     std::mt19937& rng) {
  TreeBuilder builder;
  std::vector<TreeBuilder::Ref> ref_of(t.size());
  ref_of[0] = builder.AddRoot(t.LabelName(t.label(0)));
  auto emit = [&](auto&& self, NodeId u) -> void {
    std::vector<NodeId> kids = Children(t, u);
    if (kids.empty()) return;
    std::uniform_int_distribution<std::size_t> pick(0, kids.size() - 1);
    std::rotate(kids.begin(), kids.begin() + pick(rng), kids.end());
    for (NodeId c : kids) {
      ref_of[static_cast<std::size_t>(c)] =
          builder.AddChild(ref_of[static_cast<std::size_t>(u)],
                           t.LabelName(t.label(c)));
      self(self, c);
    }
  };
  emit(emit, 0);

  std::vector<NodeId> ref_to_node;
  Tree reordered = builder.Build(&ref_to_node);
  std::vector<NodeId> old_to_new(t.size());
  for (std::size_t u = 0; u < t.size(); ++u) {
    old_to_new[u] = ref_to_node[static_cast<std::size_t>(ref_of[u])];
  }
  return {std::move(reordered), std::move(old_to_new)};
}

TEST(AxisIntervalMetamorphic, SelectorsStableUnderSiblingReorder) {
  // Order-axis-free selectors (E, desc, lab, leaf, root only — no sib,
  // succ, first, last): their answer set is invariant under any
  // label-preserving permutation of child lists, up to the induced
  // renumbering.
  const std::vector<Formula> selectors = {
      Parse("desc(x, y) & lab(y, #a)"),
      Parse("exists z (E(x, z) & E(z, y))"),
      Parse("exists z (desc(x, z) & lab(z, #b) & E(z, y))"),
      Parse("forall z (E(y, z) -> lab(z, #a))"),
      Parse("leaf(y) & desc(x, y)"),
  };

  std::mt19937 rng(47);
  for (int trial = 0; trial < 30; ++trial) {
    Tree t = RandomUnattributedTree(rng, 4 + (trial % 10) * 5,
                                    2 + trial % 4);
    auto [reordered, old_to_new] = ReorderSiblings(t, rng);
    ASSERT_EQ(reordered.size(), t.size());
    // The map is a permutation preserving labels.
    for (std::size_t u = 0; u < t.size(); ++u) {
      ASSERT_EQ(t.LabelName(t.label(static_cast<NodeId>(u))),
                reordered.LabelName(reordered.label(old_to_new[u])));
    }

    AxisIndex index(t);
    AxisIndex reordered_index(reordered);
    for (const Formula& phi : selectors) {
      Result<CompiledSelector> before = CompileSelector(index, phi);
      Result<CompiledSelector> after = CompileSelector(reordered_index, phi);
      ASSERT_TRUE(before.ok()) << before.status();
      ASSERT_TRUE(after.ok()) << after.status();
      for (NodeId origin = 0; origin < static_cast<NodeId>(t.size());
           ++origin) {
        std::vector<NodeId> expected;
        for (NodeId v : before.value().SelectFrom(origin)) {
          expected.push_back(old_to_new[static_cast<std::size_t>(v)]);
        }
        std::sort(expected.begin(), expected.end());
        EXPECT_EQ(after.value().SelectFrom(
                      old_to_new[static_cast<std::size_t>(origin)]),
                  expected)
            << "trial " << trial << " origin " << origin;
      }
    }
  }
}

// ---------------------------------------------------------------------
// Metamorphic: leaf deletion.

// Rebuilds `t` without leaf `victim` (child order preserved), returning
// the new tree and the old-id -> new-id map (kNoNode for the victim).
std::pair<Tree, std::vector<NodeId>> DeleteLeaf(const Tree& t,
                                                NodeId victim) {
  TreeBuilder builder;
  std::vector<TreeBuilder::Ref> ref_of(t.size(), -1);
  ref_of[0] = builder.AddRoot(t.LabelName(t.label(0)));
  auto emit = [&](auto&& self, NodeId u) -> void {
    for (NodeId c : Children(t, u)) {
      if (c == victim) continue;
      ref_of[static_cast<std::size_t>(c)] =
          builder.AddChild(ref_of[static_cast<std::size_t>(u)],
                           t.LabelName(t.label(c)));
      self(self, c);
    }
  };
  emit(emit, 0);

  std::vector<NodeId> ref_to_node;
  Tree pruned = builder.Build(&ref_to_node);
  std::vector<NodeId> old_to_new(t.size(), kNoNode);
  for (std::size_t u = 0; u < t.size(); ++u) {
    if (ref_of[u] >= 0) {
      old_to_new[u] = ref_to_node[static_cast<std::size_t>(ref_of[u])];
    }
  }
  return {std::move(pruned), std::move(old_to_new)};
}

TEST(AxisIntervalMetamorphic, PositiveSelectorsShrinkUnderLeafDeletion) {
  // Positive-existential selectors over E, desc, sib, lab: removing a
  // leaf can only remove witnesses, never add them (sib survives
  // because deleting a sibling preserves the relative order of the
  // rest; succ and leaf would not — deletion creates new successor
  // pairs and can turn the parent into a leaf).
  const std::vector<Formula> selectors = {
      Parse("desc(x, y) & lab(y, #a)"),
      Parse("exists z (E(x, z) & sib(z, y))"),
      Parse("exists z (E(x, z) & E(z, y))"),
      Parse("exists z (desc(x, z) & desc(z, y))"),
  };

  std::mt19937 rng(59);
  for (int trial = 0; trial < 30; ++trial) {
    Tree t = RandomUnattributedTree(rng, 6 + (trial % 8) * 6,
                                    2 + trial % 4);
    std::vector<NodeId> leaves;
    for (NodeId u = 1; u < static_cast<NodeId>(t.size()); ++u) {
      if (t.IsLeaf(u)) leaves.push_back(u);
    }
    ASSERT_FALSE(leaves.empty());
    std::uniform_int_distribution<std::size_t> pick(0, leaves.size() - 1);
    const NodeId victim = leaves[pick(rng)];
    auto [pruned, old_to_new] = DeleteLeaf(t, victim);
    ASSERT_EQ(pruned.size(), t.size() - 1);

    AxisIndex index(t);
    AxisIndex pruned_index(pruned);
    for (const Formula& phi : selectors) {
      Result<CompiledSelector> before = CompileSelector(index, phi);
      Result<CompiledSelector> after = CompileSelector(pruned_index, phi);
      ASSERT_TRUE(before.ok()) << before.status();
      ASSERT_TRUE(after.ok()) << after.status();
      for (NodeId origin = 0; origin < static_cast<NodeId>(t.size());
           ++origin) {
        if (origin == victim) continue;
        std::vector<NodeId> surviving;
        for (NodeId v : before.value().SelectFrom(origin)) {
          if (v != victim) {
            surviving.push_back(old_to_new[static_cast<std::size_t>(v)]);
          }
        }
        std::sort(surviving.begin(), surviving.end());
        const std::vector<NodeId> selected = after.value().SelectFrom(
            old_to_new[static_cast<std::size_t>(origin)]);
        // Shrinkage: everything selected after the deletion was
        // selected before it.
        EXPECT_TRUE(std::includes(surviving.begin(), surviving.end(),
                                  selected.begin(), selected.end()))
            << "trial " << trial << " origin " << origin;
      }
    }
  }
}

// ---------------------------------------------------------------------
// The million-node budget wall (ASan-focus: this is the allocation-
// heavy path ASan watches; the governor keeps it linear).

TEST(AxisIntervalBudget, MillionNodeChainFitsLinearBudgetDenseDoesNot) {
  constexpr int kNodes = 1000000;
  constexpr std::int64_t kBudget = std::int64_t{512} << 20;  // 512 MiB
  std::mt19937 rng(7001);
  const Tree t = RandomString(rng, kNodes, 4);
  const Formula phi = Parse("exists z (E(x, z) & E(z, y))");

  // Interval representation: the whole compilation — axis intervals,
  // the guarded join, the retained selector — fits a linear budget.
  ResourceGovernor interval_governor;
  interval_governor.set_memory_budget(kBudget);
  AxisIndex interval_index(t, &interval_governor);
  ASSERT_TRUE(interval_index.status().ok()) << interval_index.status();
  Result<CompiledSelector> compiled = CompileSelector(interval_index, phi);
  ASSERT_TRUE(compiled.ok()) << compiled.status();
  // Grandchild on a chain: node u selects exactly {u + 2}.
  EXPECT_EQ(compiled.value().SelectFrom(0), std::vector<NodeId>{2});
  EXPECT_EQ(compiled.value().SelectFrom(kNodes / 2),
            std::vector<NodeId>{kNodes / 2 + 2});
  EXPECT_EQ(compiled.value().SelectFrom(kNodes - 2), std::vector<NodeId>{});
  EXPECT_EQ(compiled.value().SelectFrom(kNodes - 1), std::vector<NodeId>{});
  ASSERT_NE(interval_governor.accountant(), nullptr);
  EXPECT_FALSE(interval_governor.accountant()->tripped());
  EXPECT_GT(interval_governor.accountant()->peak(), 0);
  EXPECT_LE(interval_governor.accountant()->peak(), kBudget);


  // One n-bit-per-row relation needs n^2 / 8 bytes (~116 GiB) here,
  // over 200 times the budget the whole interval compilation fits in.
  static_assert(std::int64_t{kNodes} * kNodes / 8 > 200 * kBudget);
}

// ---------------------------------------------------------------------
// Concurrency: one AxisIndex per thread over one shared tree.

TEST(AxisIntervalThreads, PerThreadIndexesCompileConcurrently) {
  std::mt19937 rng(83);
  const Tree t = RandomUnattributedTree(rng, 1500, 5);
  const Formula phi = Parse("exists z (E(x, z) & E(z, y))");
  const NodeId origins[] = {0, 1, 700, static_cast<NodeId>(t.size()) - 1};

  // Reference answers, computed single-threaded.
  std::vector<std::vector<NodeId>> expected;
  for (NodeId origin : origins) {
    Result<std::vector<NodeId>> reference =
        SelectNodes(t, phi, origin, "x", "y");
    ASSERT_TRUE(reference.ok()) << reference.status();
    expected.push_back(std::move(reference).value());
  }

  // AxisIndex is documented not thread-safe; the supported pattern is
  // one index per runner.  Each thread builds its own over the shared
  // (read-only) tree and compiles.
  constexpr int kThreads = 8;
  std::vector<int> failures(kThreads, 0);
  {
    std::vector<std::thread> threads;
    for (int i = 0; i < kThreads; ++i) {
      threads.emplace_back([&, i] {
        AxisIndex index(t);
        Result<CompiledSelector> compiled = CompileSelector(index, phi);
        if (!compiled.ok()) {
          ++failures[i];
          return;
        }
        for (std::size_t k = 0; k < std::size(origins); ++k) {
          if (compiled.value().SelectFrom(origins[k]) != expected[k]) {
            ++failures[i];
          }
        }
      });
    }
    for (std::thread& thread : threads) thread.join();
  }
  for (int i = 0; i < kThreads; ++i) {
    EXPECT_EQ(failures[i], 0) << "thread " << i;
  }
}

}  // namespace
}  // namespace treewalk
