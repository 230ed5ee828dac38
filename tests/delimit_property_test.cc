// Delimit() against the TreeBuilder construction of delim(t) it
// replaced: on every input the two must agree node for node — each
// link, label symbol and name, attribute id, name and value — and in
// both node maps, and delim(t) must share t's value interner.  The
// reference below is the straightforward definition (Section 3): copy
// t under #top between #open and #close, give every leaf a #leaf child
// and wrap every child block in #open/#close, then set every attribute
// of a delimiter to kBottom.
//
// The same reference holds the delim(t) arena a snapshot carries
// (src/tree/snapshot.h): mapped back from the image it must equal
// Delimit(t) node for node, resolve string values through the value
// pool, and carry the post-order ranks AxisIndex computes.

#include <gtest/gtest.h>

#include <memory>
#include <random>
#include <string>
#include <vector>

#include "src/tree/axis_index.h"
#include "src/tree/delimited.h"
#include "src/tree/generate.h"
#include "src/tree/snapshot.h"
#include "src/tree/term_io.h"

namespace treewalk {
namespace {

DelimitedTree ReferenceDelimit(const Tree& tree) {
  TreeBuilder wrapped;
  std::vector<TreeBuilder::Ref> refs(tree.size(), -1);
  TreeBuilder::Ref top = wrapped.AddRoot(kTopLabel);
  wrapped.AddChild(top, kOpenLabel);
  // Explicit stack of (original node, builder parent) so deep paths do
  // not recurse.
  struct Frame {
    NodeId u;
    TreeBuilder::Ref parent;
    bool closing;
  };
  std::vector<Frame> stack = {{tree.root(), top, false}};
  while (!stack.empty()) {
    Frame frame = stack.back();
    stack.pop_back();
    if (frame.closing) {
      wrapped.AddChild(frame.parent, kCloseLabel);
      continue;
    }
    const NodeId u = frame.u;
    TreeBuilder::Ref ref =
        wrapped.AddChild(frame.parent, tree.LabelName(tree.label(u)));
    refs[static_cast<std::size_t>(u)] = ref;
    for (AttrId a = 0; a < static_cast<AttrId>(tree.num_attributes()); ++a) {
      wrapped.SetAttr(ref, tree.attributes().NameOf(a), tree.attr(a, u));
    }
    if (tree.IsLeaf(u)) {
      wrapped.AddChild(ref, kLeafLabel);
      continue;
    }
    wrapped.AddChild(ref, kOpenLabel);
    stack.push_back({kNoNode, ref, true});
    std::vector<NodeId> children;
    for (NodeId c = tree.FirstChild(u); c != kNoNode; c = tree.NextSibling(c)) {
      children.push_back(c);
    }
    for (auto it = children.rbegin(); it != children.rend(); ++it) {
      stack.push_back({*it, ref, false});
    }
  }
  wrapped.AddChild(top, kCloseLabel);

  std::vector<NodeId> ref_to_node;
  DelimitedTree result;
  result.tree = wrapped.Build(&ref_to_node);
  result.tree.AdoptValues(tree);
  result.to_delimited.assign(tree.size(), kNoNode);
  result.to_original.assign(result.tree.size(), kNoNode);
  for (NodeId u = 0; u < static_cast<NodeId>(tree.size()); ++u) {
    const NodeId d = ref_to_node[static_cast<std::size_t>(
        refs[static_cast<std::size_t>(u)])];
    result.to_delimited[static_cast<std::size_t>(u)] = d;
    result.to_original[static_cast<std::size_t>(d)] = u;
  }
  for (NodeId d = 0; d < static_cast<NodeId>(result.tree.size()); ++d) {
    if (result.to_original[static_cast<std::size_t>(d)] != kNoNode) continue;
    for (AttrId a = 0; a < static_cast<AttrId>(result.tree.num_attributes());
         ++a) {
      result.tree.set_attr(a, d, kBottom);
    }
  }
  return result;
}

/// Asserts that `g` equals the reference delim(t) `w` node for node:
/// links, label symbols and names, attribute ids, names and values, and
/// string values resolved through each tree's own value interner.
void ExpectSameArena(const Tree& g, const Tree& w) {
  ASSERT_EQ(g.size(), w.size());
  ASSERT_EQ(g.labels().size(), w.labels().size());
  for (Symbol s = 0; s < static_cast<Symbol>(w.labels().size()); ++s) {
    EXPECT_EQ(g.LabelName(s), w.LabelName(s)) << "symbol " << s;
  }
  ASSERT_EQ(g.num_attributes(), w.num_attributes());
  ASSERT_EQ(g.attributes().size(), w.attributes().size());
  for (AttrId a = 0; a < static_cast<AttrId>(w.num_attributes()); ++a) {
    EXPECT_EQ(g.attributes().NameOf(a), w.attributes().NameOf(a));
  }
  for (NodeId u = 0; u < static_cast<NodeId>(w.size()); ++u) {
    ASSERT_EQ(g.label(u), w.label(u)) << "node " << u;
    ASSERT_EQ(g.Parent(u), w.Parent(u)) << "node " << u;
    ASSERT_EQ(g.FirstChild(u), w.FirstChild(u)) << "node " << u;
    ASSERT_EQ(g.LastChild(u), w.LastChild(u)) << "node " << u;
    ASSERT_EQ(g.NextSibling(u), w.NextSibling(u)) << "node " << u;
    ASSERT_EQ(g.PrevSibling(u), w.PrevSibling(u)) << "node " << u;
    ASSERT_EQ(g.ChildIndex(u), w.ChildIndex(u)) << "node " << u;
    ASSERT_EQ(g.ChildCount(u), w.ChildCount(u)) << "node " << u;
    ASSERT_EQ(g.SubtreeEnd(u), w.SubtreeEnd(u)) << "node " << u;
    for (AttrId a = 0; a < static_cast<AttrId>(w.num_attributes()); ++a) {
      ASSERT_EQ(g.attr(a, u), w.attr(a, u)) << "node " << u << " attr " << a;
      ASSERT_EQ(g.values().Render(g.attr(a, u)),
                w.values().Render(w.attr(a, u)))
          << "node " << u << " attr " << a;
    }
  }
}

/// The delim(t) arena of t's snapshot image against the reference, and
/// its persisted post-order ranks against AxisIndex's numbering of the
/// computed delim(t).
void ExpectMappedArena(const Tree& t, const DelimitedTree& want) {
  SCOPED_TRACE("mapped arena");
  auto image = std::make_shared<const std::string>(EncodeTreeSnapshot(t));
  SnapshotInfo info;
  Result<Tree> mapped = DelimitedTreeFromSnapshotImage(image, &info);
  ASSERT_TRUE(mapped.ok()) << mapped.status();
  EXPECT_EQ(info.nodes, t.size());
  ExpectSameArena(*mapped, want.tree);
  for (NodeId d = 0; d < static_cast<NodeId>(want.tree.size()); ++d) {
    if (!want.IsDelimiter(d)) continue;
    for (AttrId a = 0; a < static_cast<AttrId>(want.tree.num_attributes());
         ++a) {
      ASSERT_EQ(mapped->attr(a, d), kBottom) << "delimiter " << d;
    }
  }
  ASSERT_NE(mapped->snapshot_postorder(), nullptr);
  const Tree computed = Delimit(t).tree;
  const AxisIndex index(computed);
  const std::vector<NodeId>& ranks = index.PostorderRanks();
  ASSERT_EQ(ranks.size(), mapped->size());
  for (std::size_t u = 0; u < ranks.size(); ++u) {
    ASSERT_EQ(mapped->snapshot_postorder()[u], ranks[u]) << "node " << u;
  }
  EXPECT_EQ(PrintTerm(*mapped), PrintTerm(want.tree));
}

/// Asserts node-for-node identity; `what` names the input.
void ExpectIdentical(const Tree& t, const std::string& what) {
  SCOPED_TRACE(what);
  const DelimitedTree got = Delimit(t);
  const DelimitedTree want = ReferenceDelimit(t);
  const Tree& g = got.tree;
  const Tree& w = want.tree;
  ASSERT_EQ(g.size(), w.size());
  EXPECT_EQ(g.size(), 3 + 3 * t.size() - [&] {
    std::size_t leaves = 0;
    for (NodeId u = 0; u < static_cast<NodeId>(t.size()); ++u) {
      leaves += t.IsLeaf(u) ? 1 : 0;
    }
    return leaves;
  }());

  // Label interning order: the same symbol for the same name.
  ASSERT_EQ(g.labels().size(), w.labels().size());
  for (Symbol s = 0; s < static_cast<Symbol>(w.labels().size()); ++s) {
    EXPECT_EQ(g.LabelName(s), w.LabelName(s)) << "symbol " << s;
  }
  // Attribute ids, names and columns.
  ASSERT_EQ(g.num_attributes(), w.num_attributes());
  ASSERT_EQ(g.attributes().size(), w.attributes().size());
  for (AttrId a = 0; a < static_cast<AttrId>(w.num_attributes()); ++a) {
    EXPECT_EQ(g.attributes().NameOf(a), w.attributes().NameOf(a));
  }
  for (NodeId u = 0; u < static_cast<NodeId>(w.size()); ++u) {
    ASSERT_EQ(g.label(u), w.label(u)) << "node " << u;
    ASSERT_EQ(g.Parent(u), w.Parent(u)) << "node " << u;
    ASSERT_EQ(g.FirstChild(u), w.FirstChild(u)) << "node " << u;
    ASSERT_EQ(g.LastChild(u), w.LastChild(u)) << "node " << u;
    ASSERT_EQ(g.NextSibling(u), w.NextSibling(u)) << "node " << u;
    ASSERT_EQ(g.PrevSibling(u), w.PrevSibling(u)) << "node " << u;
    ASSERT_EQ(g.ChildIndex(u), w.ChildIndex(u)) << "node " << u;
    ASSERT_EQ(g.ChildCount(u), w.ChildCount(u)) << "node " << u;
    ASSERT_EQ(g.SubtreeEnd(u), w.SubtreeEnd(u)) << "node " << u;
    for (AttrId a = 0; a < static_cast<AttrId>(w.num_attributes()); ++a) {
      ASSERT_EQ(g.attr(a, u), w.attr(a, u)) << "node " << u << " attr " << a;
    }
  }
  EXPECT_EQ(got.to_delimited, want.to_delimited);
  EXPECT_EQ(got.to_original, want.to_original);
  // delim(t) resolves t's interned strings in t's own handle space.
  EXPECT_EQ(&g.values(), &t.values());
  EXPECT_EQ(g.snapshot_postorder(), nullptr);
  EXPECT_EQ(g.snapshot_stats(), nullptr);
  EXPECT_EQ(PrintTerm(g), PrintTerm(w));
  ExpectMappedArena(t, want);
}

/// Random attributed tree whose second attribute holds interned
/// strings, so delim(t)'s values only mean something through t's
/// interner.
Tree RandomStringValued(std::mt19937& rng, int n) {
  std::uniform_int_distribution<int> pick(0, 5);
  TreeBuilder b;
  std::vector<TreeBuilder::Ref> refs = {b.AddRoot("r")};
  const std::vector<std::string> labels = {"a", "b", "sigma", "#open"};
  for (int i = 1; i < n; ++i) {
    std::uniform_int_distribution<std::size_t> parent(0, refs.size() - 1);
    refs.push_back(b.AddChild(refs[parent(rng)], labels[pick(rng) % 4]));
  }
  for (std::size_t i = 0; i < refs.size(); ++i) {
    b.SetAttr(refs[i], "n", pick(rng));
    b.SetAttrString(refs[i], "s", "v" + std::to_string(pick(rng)));
  }
  return b.Build();
}

TEST(DelimitProperty, RandomAttributedTreesWithStringValues) {
  for (unsigned seed = 0; seed < 60; ++seed) {
    std::mt19937 rng(seed);
    ExpectIdentical(RandomStringValued(rng, 1 + static_cast<int>(seed) * 5),
                    "string-valued seed " + std::to_string(seed));
  }
  RandomTreeOptions options;
  options.attributes = {"a", "b", "c"};
  for (unsigned seed = 0; seed < 40; ++seed) {
    std::mt19937 rng(seed);
    options.num_nodes = 1 + static_cast<int>(seed) * 7;
    options.max_children = 1 + static_cast<int>(seed % 6);
    ExpectIdentical(RandomTree(rng, options),
                    "random seed " + std::to_string(seed));
  }
}

TEST(DelimitProperty, SingleNodeDeepPathAndWideStar) {
  ExpectIdentical(std::move(ParseTerm("a")).value(), "single node");
  ExpectIdentical(std::move(ParseTerm("a[x=3]")).value(), "single attributed");
  TreeBuilder path;
  TreeBuilder::Ref r = path.AddRoot("p");
  for (int i = 1; i < 5000; ++i) {
    r = path.AddChild(r, i % 2 == 0 ? "p" : "q");
    path.SetAttr(r, "depth", i);
  }
  ExpectIdentical(path.Build(), "deep path");
  TreeBuilder star;
  TreeBuilder::Ref hub = star.AddRoot("hub");
  for (int i = 0; i < 10000; ++i) {
    star.SetAttr(star.AddChild(hub, i % 3 == 0 ? "x" : "y"), "i", i);
  }
  ExpectIdentical(star.Build(), "wide star");
  ExpectIdentical(FullTree(3, 6), "full ternary");
}

/// A snapshot-loaded tree aliases the mapped image for its node records
/// and columns; Delimit() must read it exactly like an owned tree.
TEST(DelimitProperty, SnapshotLoadedTree) {
  std::mt19937 rng(17);
  const Tree original = RandomStringValued(rng, 300);
  auto image =
      std::make_shared<const std::string>(EncodeTreeSnapshot(original));
  Result<Tree> loaded = TreeFromSnapshotImage(image);
  ASSERT_TRUE(loaded.ok()) << loaded.status();
  ASSERT_NE(loaded->snapshot_postorder(), nullptr);
  ExpectIdentical(*loaded, "snapshot-loaded");
  EXPECT_EQ(PrintTerm(Delimit(*loaded).tree),
            PrintTerm(Delimit(original).tree));
}

}  // namespace
}  // namespace treewalk
