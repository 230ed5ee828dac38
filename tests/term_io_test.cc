#include <gtest/gtest.h>

#include <random>
#include <string>
#include <utility>
#include <vector>

#include "src/tree/snapshot.h"
#include "src/tree/term_io.h"
#include "src/tree/tree.h"

namespace treewalk {
namespace {

TEST(ParseTerm, SingleNode) {
  auto r = ParseTerm("a");
  ASSERT_TRUE(r.ok()) << r.status();
  EXPECT_EQ(r->size(), 1u);
  EXPECT_EQ(r->LabelName(r->label(0)), "a");
}

TEST(ParseTerm, NestedChildren) {
  auto r = ParseTerm("a(b, c(d, e), f)");
  ASSERT_TRUE(r.ok()) << r.status();
  const Tree& t = *r;
  ASSERT_EQ(t.size(), 6u);
  EXPECT_EQ(t.ChildCount(0), 3);
  EXPECT_EQ(t.LabelName(t.label(t.FirstChild(2))), "d");
}

TEST(ParseTerm, NumericAttributes) {
  auto r = ParseTerm("a[id=0](b[id=1, a=-5])");
  ASSERT_TRUE(r.ok()) << r.status();
  AttrId id = r->FindAttribute("id");
  AttrId a = r->FindAttribute("a");
  EXPECT_EQ(r->attr(id, 1), 1);
  EXPECT_EQ(r->attr(a, 1), -5);
}

TEST(ParseTerm, StringAttributes) {
  auto r = ParseTerm(R"(item[name="nut", kind="bolt\"x"])");
  ASSERT_TRUE(r.ok()) << r.status();
  AttrId name = r->FindAttribute("name");
  EXPECT_EQ(r->values().Render(r->attr(name, 0)), "nut");
  AttrId kind = r->FindAttribute("kind");
  EXPECT_EQ(r->values().Render(r->attr(kind, 0)), "bolt\"x");
}

/// Integer attribute values lie strictly between kBottom and
/// kStringBase.  One outside would compare equal to a delimiter's
/// kBottom or to an interned string: read as integers,
/// delta(sigma[a="foo"], sigma[a=2^62]) would satisfy Example 3.2's
/// program, since "foo" is interned as 2^62, and 10^20 clamped to the
/// int64 maximum would equal 9223372036854775807.
TEST(ParseTerm, IntegerValuesThatWouldAliasAreRejected) {
  for (const char* term :
       {"r(delta(sigma[a=\"foo\"], sigma[a=4611686018427387904]))",
        "r(delta(sigma[a=\"foo\"], sigma[a=4611686018427387905]))",
        "r(delta(sigma[a=99999999999999999999], "
        "sigma[a=9223372036854775807]))",
        "r(delta(sigma[a=-9223372036854775808]))"}) {
    auto r = ParseTerm(term);
    ASSERT_FALSE(r.ok()) << term;
    EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument) << term;
    EXPECT_NE(r.status().message().find("out of range"), std::string::npos)
        << term << ": " << r.status();
  }
  // The message names the numeral's offset.
  auto overflow = ParseTerm("a[x=1, y=99999999999999999999]");
  ASSERT_FALSE(overflow.ok());
  EXPECT_EQ(overflow.status().message(),
            "integer value out of range at offset 9");

  auto bounds = ParseTerm("a[lo=-9223372036854775807, hi=4611686018427387903]");
  ASSERT_TRUE(bounds.ok()) << bounds.status();
  EXPECT_EQ(bounds->attr(bounds->FindAttribute("lo"), 0), kBottom + 1);
  EXPECT_EQ(bounds->attr(bounds->FindAttribute("hi"), 0),
            ValueInterner::kStringBase - 1);
}

TEST(ParseTerm, WhitespaceInsensitive) {
  auto r = ParseTerm("  a (\n b\t[ x = 3 ] ,c )  ");
  ASSERT_TRUE(r.ok()) << r.status();
  EXPECT_EQ(r->size(), 3u);
}

TEST(ParseTerm, EmptyAttributeList) {
  auto r = ParseTerm("a[]");
  ASSERT_TRUE(r.ok()) << r.status();
}

TEST(ParseTerm, DelimiterLabels) {
  auto r = ParseTerm("#top(#open, a, #close)");
  ASSERT_TRUE(r.ok()) << r.status();
  EXPECT_EQ(r->LabelName(r->label(0)), "#top");
}

TEST(ParseTerm, Errors) {
  EXPECT_FALSE(ParseTerm("").ok());
  EXPECT_FALSE(ParseTerm("a(").ok());
  EXPECT_FALSE(ParseTerm("a(b,)").ok());
  EXPECT_FALSE(ParseTerm("a)b").ok());
  EXPECT_FALSE(ParseTerm("a[x]").ok());
  EXPECT_FALSE(ParseTerm("a[x=]").ok());
  EXPECT_FALSE(ParseTerm("a[x=\"unterminated]").ok());
  EXPECT_FALSE(ParseTerm("a b").ok());
  EXPECT_FALSE(ParseTerm("1a").ok());
}

// --- ParseTerm writes through PreorderTreeWriter -------------------------
//
// The reference is the TreeBuilder construction the parser used to make:
// AddRoot/AddChild in document order and one SetAttr/SetAttrString per
// `name=value` entry, in text order.  The parse must equal it node for
// node and carry the same TreeContentHash.

void ExpectSameTree(const Tree& got, const Tree& want) {
  ASSERT_EQ(got.size(), want.size());
  ASSERT_EQ(got.labels().size(), want.labels().size());
  for (Symbol s = 0; s < static_cast<Symbol>(want.labels().size()); ++s) {
    EXPECT_EQ(got.LabelName(s), want.LabelName(s)) << "symbol " << s;
  }
  ASSERT_EQ(got.num_attributes(), want.num_attributes());
  for (AttrId a = 0; a < static_cast<AttrId>(want.num_attributes()); ++a) {
    EXPECT_EQ(got.attributes().NameOf(a), want.attributes().NameOf(a));
  }
  ASSERT_EQ(got.values().size(), want.values().size());
  for (std::size_t i = 0; i < want.values().size(); ++i) {
    EXPECT_EQ(got.values().NameAt(static_cast<std::int64_t>(i)),
              want.values().NameAt(static_cast<std::int64_t>(i)));
  }
  for (NodeId u = 0; u < static_cast<NodeId>(want.size()); ++u) {
    ASSERT_EQ(got.label(u), want.label(u)) << "node " << u;
    ASSERT_EQ(got.Parent(u), want.Parent(u)) << "node " << u;
    ASSERT_EQ(got.FirstChild(u), want.FirstChild(u)) << "node " << u;
    ASSERT_EQ(got.LastChild(u), want.LastChild(u)) << "node " << u;
    ASSERT_EQ(got.NextSibling(u), want.NextSibling(u)) << "node " << u;
    ASSERT_EQ(got.PrevSibling(u), want.PrevSibling(u)) << "node " << u;
    ASSERT_EQ(got.ChildIndex(u), want.ChildIndex(u)) << "node " << u;
    ASSERT_EQ(got.ChildCount(u), want.ChildCount(u)) << "node " << u;
    ASSERT_EQ(got.SubtreeEnd(u), want.SubtreeEnd(u)) << "node " << u;
    for (AttrId a = 0; a < static_cast<AttrId>(want.num_attributes()); ++a) {
      ASSERT_EQ(got.attr(a, u), want.attr(a, u)) << "node " << u;
    }
  }
  EXPECT_EQ(TreeContentHash(got), TreeContentHash(want));
}

/// A random attributed term and the TreeBuilder calls it stands for:
/// numeric and string values, and one attribute set twice on a node.
struct RandomTerm {
  std::string text;
  TreeBuilder builder;

  RandomTerm(std::mt19937& rng, int nodes) {
    std::uniform_int_distribution<int> pick(0, 5);
    // Parent of node i > 0 among 0..i-1, so the term is a random tree.
    std::vector<std::vector<int>> children(static_cast<std::size_t>(nodes));
    for (int i = 1; i < nodes; ++i) {
      std::uniform_int_distribution<int> parent(0, i - 1);
      children[static_cast<std::size_t>(parent(rng))].push_back(i);
    }
    const int twice = std::uniform_int_distribution<int>(0, nodes - 1)(rng);
    Emit(rng, pick, children, 0, -1, twice);
  }

  void Emit(std::mt19937& rng, std::uniform_int_distribution<int>& pick,
            const std::vector<std::vector<int>>& children, int i,
            TreeBuilder::Ref parent, int twice) {
    static const char* kLabels[] = {"a", "b", "sigma", "#open", "x-1", "_y"};
    const std::string label = kLabels[pick(rng)];
    const TreeBuilder::Ref ref =
        parent < 0 ? builder.AddRoot(label) : builder.AddChild(parent, label);
    text += label;
    std::vector<std::pair<std::string, std::string>> attrs;  // name, value
    for (int k = pick(rng) % 3; k > 0; --k) {
      const std::string name =
          pick(rng) % 2 == 0 ? "n" : "s" + std::to_string(pick(rng) % 2);
      attrs.emplace_back(name, name == "n"
                                   ? std::to_string(pick(rng) - 2)
                                   : "\"v" + std::to_string(pick(rng)) + "\"");
    }
    if (i == twice) {
      attrs.emplace_back("n", "7");
      attrs.emplace_back("n", "-9");
    }
    if (!attrs.empty()) {
      text += '[';
      for (std::size_t k = 0; k < attrs.size(); ++k) {
        const auto& [name, value] = attrs[k];
        text += (k > 0 ? ", " : "") + name + "=" + value;
        if (value[0] == '"') {
          builder.SetAttrString(ref, name, value.substr(1, value.size() - 2));
        } else {
          builder.SetAttr(ref, name, std::stoll(value));
        }
      }
      text += ']';
    }
    const std::vector<int>& kids = children[static_cast<std::size_t>(i)];
    if (kids.empty()) return;
    text += '(';
    for (std::size_t k = 0; k < kids.size(); ++k) {
      if (k > 0) text += ", ";
      Emit(rng, pick, children, kids[k], ref, twice);
    }
    text += ')';
  }
};

TEST(ParseTermWriter, EqualsTheTreeBuilderConstruction) {
  for (unsigned seed = 0; seed < 60; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    std::mt19937 rng(seed);
    RandomTerm term(rng, 1 + static_cast<int>(seed) * 4);
    Result<Tree> parsed = ParseTerm(term.text);
    ASSERT_TRUE(parsed.ok()) << parsed.status() << "\n" << term.text;
    ExpectSameTree(*parsed, term.builder.Build());
  }
}

TEST(ParseTermWriter, DeepestPathAndWideStar) {
  // A path exactly kMaxTermNestingDepth deep parses.
  std::string path;
  TreeBuilder path_builder;
  TreeBuilder::Ref ref = path_builder.AddRoot("p");
  path += "p[d=0]";
  path_builder.SetAttr(ref, "d", 0);
  for (int depth = 1; depth <= kMaxTermNestingDepth; ++depth) {
    const std::string label = depth % 2 == 0 ? "p" : "q";
    path += "(" + label + "[d=" + std::to_string(depth) + "]";
    ref = path_builder.AddChild(ref, label);
    path_builder.SetAttr(ref, "d", depth);
  }
  path += std::string(kMaxTermNestingDepth, ')');
  Result<Tree> parsed_path = ParseTerm(path);
  ASSERT_TRUE(parsed_path.ok()) << parsed_path.status();
  ExpectSameTree(*parsed_path, path_builder.Build());

  std::string star = "hub(";
  TreeBuilder star_builder;
  const TreeBuilder::Ref hub = star_builder.AddRoot("hub");
  for (int i = 0; i < 10000; ++i) {
    const std::string label = i % 3 == 0 ? "x" : "y";
    star += (i > 0 ? ", " : "") + label + "[i=" + std::to_string(i) +
            ", s=\"v" + std::to_string(i % 7) + "\"]";
    const TreeBuilder::Ref leaf = star_builder.AddChild(hub, label);
    star_builder.SetAttr(leaf, "i", i);
    star_builder.SetAttrString(leaf, "s", "v" + std::to_string(i % 7));
  }
  star += ")";
  Result<Tree> parsed_star = ParseTerm(star);
  ASSERT_TRUE(parsed_star.ok()) << parsed_star.status();
  ExpectSameTree(*parsed_star, star_builder.Build());
}

TEST(ParseTermWriter, MalformedTermsKeepTheirMessagesAndOffsets) {
  // One level past the limit: the label at depth 2001 starts at 4002.
  std::string nested;
  for (int i = 0; i <= kMaxTermNestingDepth; ++i) nested += "a(";
  nested += "a";
  const std::vector<std::pair<std::string, std::string>> cases = {
      {"", "expected label at offset 0"},
      {"a(", "expected label at offset 2"},
      {"a(b,)", "expected label at offset 4"},
      {"a)b", "trailing input after tree term at offset 1"},
      {"a b", "trailing input after tree term at offset 2"},
      {"1a", "expected label at offset 0"},
      {"a(b", "expected ')' at offset 3"},
      {"a[x]", "expected '=' at offset 3"},
      {"a[x=]", "expected integer or string value at offset 4"},
      {"a[x=-]", "expected integer or string value at offset 5"},
      {"a[x=\"unterminated]", "unclosed string at offset 18"},
      {"a[x=1", "expected ']' at offset 5"},
      {"a[1=2]", "expected attribute at offset 2"},
      {nested, "term nesting exceeds depth limit 2000 at offset 4002"},
  };
  for (const auto& [text, message] : cases) {
    Result<Tree> parsed = ParseTerm(text);
    ASSERT_FALSE(parsed.ok()) << text;
    EXPECT_EQ(parsed.status().code(), StatusCode::kInvalidArgument);
    EXPECT_EQ(parsed.status().message(), message) << text.substr(0, 40);
  }
}

TEST(PrintTerm, RoundTripsShape) {
  const std::string src = "a[id=1](b[id=2], c[id=3](d[id=4]))";
  auto t = ParseTerm(src);
  ASSERT_TRUE(t.ok());
  std::string printed = PrintTerm(*t);
  auto t2 = ParseTerm(printed);
  ASSERT_TRUE(t2.ok()) << printed << " -> " << t2.status();
  EXPECT_EQ(PrintTerm(*t2), printed);
  EXPECT_EQ(t2->size(), t->size());
}

TEST(PrintTerm, SkipsZeroAttributesByDefault) {
  auto t = ParseTerm("a[x=0](b[x=7])");
  ASSERT_TRUE(t.ok());
  EXPECT_EQ(PrintTerm(*t), "a(b[x=7])");
  EXPECT_EQ(PrintTerm(*t, /*skip_zero_attrs=*/false), "a[x=0](b[x=7])");
}

TEST(StringTree, BuildsMonadicTree) {
  Tree t = StringTree({3, 1, 4, 1});
  ASSERT_EQ(t.size(), 4u);
  EXPECT_EQ(t.ChildCount(0), 1);
  EXPECT_EQ(t.ChildCount(3), 0);
  EXPECT_EQ(StringValues(t), (std::vector<DataValue>{3, 1, 4, 1}));
}

TEST(StringTree, SingleElement) {
  Tree t = StringTree({9});
  EXPECT_EQ(t.size(), 1u);
  EXPECT_EQ(StringValues(t), (std::vector<DataValue>{9}));
}

TEST(StringValues, MissingAttributeGivesEmpty) {
  Tree t = StringTree({1, 2});
  EXPECT_TRUE(StringValues(t, "nope").empty());
}

}  // namespace
}  // namespace treewalk
