#include <gtest/gtest.h>

#include <random>

#include "src/logic/tree_eval.h"
#include "src/tree/generate.h"
#include "src/tree/term_io.h"
#include "src/xpath/xpath.h"

namespace treewalk {
namespace {

Tree Catalog() {
  // doc(part[id=1, kind="bolt"](sub[id=2]), part[id=3, kind="nut"],
  //     misc(part[id=4, kind="bolt"](sub[id=5](sub[id=6]))))
  auto t = ParseTerm(
      "doc(part[id=1, kind=\"bolt\"](sub[id=2]), part[id=3, kind=\"nut\"], "
      "misc(part[id=4, kind=\"bolt\"](sub[id=5](sub[id=6]))))");
  EXPECT_TRUE(t.ok()) << t.status();
  return *t;
}

XPath P(const char* src) {
  auto r = ParseXPath(src);
  EXPECT_TRUE(r.ok()) << src << ": " << r.status();
  return r.ok() ? *r : XPath{};
}

std::vector<NodeId> Eval(const Tree& t, const char* src, NodeId ctx) {
  auto r = EvalXPath(t, P(src), ctx);
  EXPECT_TRUE(r.ok()) << src << ": " << r.status();
  return r.ok() ? *r : std::vector<NodeId>{};
}

TEST(ParseXPath, Shapes) {
  EXPECT_TRUE(ParseXPath("a").ok());
  EXPECT_TRUE(ParseXPath("/a/b").ok());
  EXPECT_TRUE(ParseXPath("//a").ok());
  EXPECT_TRUE(ParseXPath("a//b/c").ok());
  EXPECT_TRUE(ParseXPath("a | b | c").ok());
  EXPECT_TRUE(ParseXPath("*[a][@x = 3]").ok());
  EXPECT_TRUE(ParseXPath("a[b/c][@k = \"v\"]").ok());
  EXPECT_TRUE(ParseXPath("a[@p = @q]").ok());
}

TEST(ParseXPath, Errors) {
  EXPECT_FALSE(ParseXPath("").ok());
  EXPECT_FALSE(ParseXPath("/").ok());
  EXPECT_FALSE(ParseXPath("a/").ok());
  EXPECT_FALSE(ParseXPath("a[").ok());
  EXPECT_FALSE(ParseXPath("a[]").ok());
  EXPECT_FALSE(ParseXPath("a[@x]").ok());
  EXPECT_FALSE(ParseXPath("a[@x = ]").ok());
  EXPECT_FALSE(ParseXPath("a b").ok());
  EXPECT_FALSE(ParseXPath("a[@x = 'unclosed]").ok());
}

/// An integer literal that would compare equal to an interned string
/// (2^62 and up) or to ⊥ (-2^63), or that overflows, is refused at its
/// offset rather than aliased.
TEST(ParseXPath, IntegerLiteralsThatWouldAliasAreRejected) {
  for (const char* src : {"//b[@x=4611686018427387904]",
                          "//b[@x=-9223372036854775808]",
                          "//b[@x=99999999999999999999]"}) {
    auto r = ParseXPath(src);
    ASSERT_FALSE(r.ok()) << src;
    EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
    EXPECT_NE(r.status().message().find("at offset 7"), std::string::npos)
        << r.status();
  }
  EXPECT_TRUE(ParseXPath("//b[@x=4611686018427387903]").ok());
  EXPECT_TRUE(ParseXPath("//b[@x=-9223372036854775807]").ok());
}

TEST(XPathToString, RoundTrips) {
  const char* sources[] = {
      "a",          "/a/b",      "//a",          "a//b/c",
      "a | b",      "*[a]",      "a[@x = 3]",    "a[@k = \"v\"]",
      "a[@p = @q]", "a[b//c][d]", "//*[@id = 0]",
  };
  for (const char* src : sources) {
    XPath p = P(src);
    std::string printed = XPathToString(p);
    auto again = ParseXPath(printed);
    ASSERT_TRUE(again.ok()) << printed;
    EXPECT_EQ(XPathToString(*again), printed) << src;
  }
}

TEST(EvalXPath, ChildStep) {
  Tree t = Catalog();
  EXPECT_EQ(Eval(t, "part", 0), (std::vector<NodeId>{1, 3}));
  EXPECT_EQ(Eval(t, "part/sub", 0), (std::vector<NodeId>{2}));
  EXPECT_EQ(Eval(t, "misc/part", 0), (std::vector<NodeId>{5}));
  EXPECT_TRUE(Eval(t, "nothing", 0).empty());
}

TEST(EvalXPath, DescendantStep) {
  Tree t = Catalog();
  EXPECT_EQ(Eval(t, "//part", 0), (std::vector<NodeId>{1, 3, 5}));
  EXPECT_EQ(Eval(t, "//sub", 0), (std::vector<NodeId>{2, 6, 7}));
  EXPECT_EQ(Eval(t, "misc//sub", 0), (std::vector<NodeId>{6, 7}));
  // Context-relative descendant.
  EXPECT_EQ(Eval(t, "part//sub", 4), (std::vector<NodeId>{6, 7}));
}

TEST(EvalXPath, AbsolutePathIgnoresContext) {
  Tree t = Catalog();
  EXPECT_EQ(Eval(t, "/doc", 5), (std::vector<NodeId>{0}));
  EXPECT_TRUE(Eval(t, "/part", 5).empty());
  EXPECT_EQ(Eval(t, "/doc/part", 6), (std::vector<NodeId>{1, 3}));
}

TEST(EvalXPath, Wildcard) {
  Tree t = Catalog();
  EXPECT_EQ(Eval(t, "*", 4), (std::vector<NodeId>{5}));
  // A leading '//' is absolute (as in XPath): all nodes including the
  // root, regardless of context.
  EXPECT_EQ(Eval(t, "//*", 0).size(), t.size());
  EXPECT_EQ(Eval(t, "//*", 4).size(), t.size());
  // Relative descendant selection goes through a named first step.
  EXPECT_EQ(Eval(t, "misc//*", 0), (std::vector<NodeId>{5, 6, 7}));
}

TEST(EvalXPath, PathPredicates) {
  Tree t = Catalog();
  // parts that have a sub child
  EXPECT_EQ(Eval(t, "//part[sub]", 0), (std::vector<NodeId>{1, 5}));
  // parts that have a sub grandchild via nested descendant
  EXPECT_EQ(Eval(t, "//part[sub/sub]", 0), (std::vector<NodeId>{5}));
  // union inside a predicate
  EXPECT_EQ(Eval(t, "//part[sub | nothing]", 0), (std::vector<NodeId>{1, 5}));
}

TEST(EvalXPath, AttributePredicates) {
  Tree t = Catalog();
  EXPECT_EQ(Eval(t, "//part[@kind = \"bolt\"]", 0),
            (std::vector<NodeId>{1, 5}));
  EXPECT_EQ(Eval(t, "//part[@id = 3]", 0), (std::vector<NodeId>{3}));
  EXPECT_TRUE(Eval(t, "//part[@id = 99]", 0).empty());
  // @id = @id trivially holds.
  EXPECT_EQ(Eval(t, "//sub[@id = @id]", 0), (std::vector<NodeId>{2, 6, 7}));
}

TEST(EvalXPath, UnionMergesAndDeduplicates) {
  Tree t = Catalog();
  EXPECT_EQ(Eval(t, "part | misc/part | part", 0),
            (std::vector<NodeId>{1, 3, 5}));
}

TEST(EvalXPath, MissingAttributeIsError) {
  Tree t = Catalog();
  EXPECT_FALSE(EvalXPath(t, P("//part[@nope = 1]"), 0).ok());
  EXPECT_FALSE(EvalXPath(t, P("//part[@id = @nope]"), 0).ok());
}

TEST(EvalXPath, InvalidContext) {
  Tree t = Catalog();
  EXPECT_FALSE(EvalXPath(t, P("a"), 999).ok());
}

TEST(CompileXPathToFo, PaperExampleShape) {
  // Section 2.3 compiles an XPath expression into an existential-prenex
  // binary formula over {x, y}.
  auto f = CompileXPathToFo(P("a/b[b//c][d]"));
  ASSERT_TRUE(f.ok()) << f.status();
  EXPECT_TRUE(f->IsExistentialPrenex());
  for (const std::string& v : f->FreeVariables()) {
    EXPECT_TRUE(v == "x" || v == "y") << v;
  }
  EXPECT_TRUE(ValidateTreeFormula(*f).ok());
}

TEST(CompileXPathToFo, EmptyInputsRejected) {
  EXPECT_FALSE(CompileXPathToFo(XPath{}).ok());
  XPath with_empty_path;
  with_empty_path.paths.push_back(XPathPath{});
  EXPECT_FALSE(CompileXPathToFo(with_empty_path).ok());
}

/// The central Section 2.3 property: the direct evaluator and the
/// FO(exists*) compilation agree on every query and context.
TEST(CompileXPathToFo, AgreesWithDirectEvaluatorOnCatalog) {
  Tree t = Catalog();
  const char* queries[] = {
      "part",
      "part/sub",
      "//part",
      "//sub",
      "misc//sub",
      "/doc/part",
      "//part[sub]",
      "//part[@kind = \"bolt\"]",
      "//part[@id = 3]",
      "part | misc/part",
      "*",
      "//*",
      "//part[sub/sub]",
      "//part[sub][@kind = \"bolt\"]",
      "/" "/*[@id = @id]",
  };
  for (const char* q : queries) {
    XPath p = P(q);
    auto compiled = CompileXPathToFo(p);
    ASSERT_TRUE(compiled.ok()) << q << ": " << compiled.status();
    for (NodeId ctx = 0; ctx < static_cast<NodeId>(t.size()); ++ctx) {
      auto direct = EvalXPath(t, p, ctx);
      auto via_fo = SelectNodes(t, *compiled, ctx);
      ASSERT_TRUE(direct.ok()) << q;
      ASSERT_TRUE(via_fo.ok()) << q << ": " << via_fo.status();
      EXPECT_EQ(*direct, *via_fo) << q << " at context " << ctx;
    }
  }
}

TEST(CompileXPathToFo, AgreesOnRandomTrees) {
  std::mt19937 rng(31);
  RandomTreeOptions options;
  options.num_nodes = 15;
  options.labels = {"a", "b", "c"};
  options.attributes = {"p"};
  options.value_range = 3;
  const char* queries[] = {"//a", "a/b", "//a[b]", "//b[@p = 1]",
                           "a | b/c", "//a[b | c]"};
  for (int trial = 0; trial < 10; ++trial) {
    Tree t = RandomTree(rng, options);
    for (const char* q : queries) {
      XPath p = P(q);
      auto compiled = CompileXPathToFo(p);
      ASSERT_TRUE(compiled.ok());
      auto direct = EvalXPath(t, p, t.root());
      auto via_fo = SelectNodes(t, *compiled, t.root());
      ASSERT_TRUE(direct.ok() && via_fo.ok()) << q;
      EXPECT_EQ(*direct, *via_fo) << q << " trial " << trial;
    }
  }
}

}  // namespace
}  // namespace treewalk
