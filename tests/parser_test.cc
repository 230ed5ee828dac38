#include <gtest/gtest.h>

#include <string>

#include "src/common/interner.h"
#include "src/logic/parser.h"

namespace treewalk {
namespace {

Formula MustParse(const char* src) {
  auto r = ParseFormula(src);
  EXPECT_TRUE(r.ok()) << src << ": " << r.status();
  return r.ok() ? *r : Formula();
}

TEST(ParseFormula, Constants) {
  EXPECT_EQ(MustParse("true").node().kind, FormulaKind::kTrue);
  EXPECT_EQ(MustParse("false").node().kind, FormulaKind::kFalse);
}

TEST(ParseFormula, PrecedenceAndBeforeOr) {
  Formula f = MustParse("root(x) | leaf(x) & first(x)");
  ASSERT_EQ(f.node().kind, FormulaKind::kOr);
  EXPECT_EQ(f.node().children[1].node().kind, FormulaKind::kAnd);
}

TEST(ParseFormula, ImpliesIsRightAssociative) {
  Formula f = MustParse("root(x) -> leaf(x) -> first(x)");
  ASSERT_EQ(f.node().kind, FormulaKind::kImplies);
  EXPECT_EQ(f.node().children[1].node().kind, FormulaKind::kImplies);
}

TEST(ParseFormula, IffBindsLoosest) {
  Formula f = MustParse("root(x) -> leaf(x) <-> first(x)");
  EXPECT_EQ(f.node().kind, FormulaKind::kIff);
}

TEST(ParseFormula, QuantifierChains) {
  Formula f = MustParse("exists y exists z (E(x, y) & E(y, z))");
  ASSERT_EQ(f.node().kind, FormulaKind::kExists);
  EXPECT_EQ(f.node().var, "y");
  EXPECT_EQ(f.node().children[0].node().kind, FormulaKind::kExists);
  EXPECT_TRUE(f.IsExistentialPrenex());
}

TEST(ParseFormula, QuantifierScopeIsOneUnary) {
  // 'exists y leaf(y) & root(x)': the quantifier grabs only leaf(y).
  Formula f = MustParse("exists y leaf(y) & root(x)");
  EXPECT_EQ(f.node().kind, FormulaKind::kAnd);
  EXPECT_EQ(f.node().children[0].node().kind, FormulaKind::kExists);
}

TEST(ParseFormula, TreeAtoms) {
  Formula f = MustParse("E(x, y)");
  EXPECT_EQ(f.node().atom, AtomKind::kEdge);
  EXPECT_EQ(MustParse("sib(x, y)").node().atom, AtomKind::kSibling);
  EXPECT_EQ(MustParse("desc(x, y)").node().atom, AtomKind::kDescendant);
  EXPECT_EQ(MustParse("succ(x, y)").node().atom, AtomKind::kSucc);
  EXPECT_EQ(MustParse("root(x)").node().atom, AtomKind::kRoot);
  EXPECT_EQ(MustParse("leaf(x)").node().atom, AtomKind::kLeaf);
  EXPECT_EQ(MustParse("first(x)").node().atom, AtomKind::kFirst);
  EXPECT_EQ(MustParse("last(x)").node().atom, AtomKind::kLast);
  Formula lab = MustParse("lab(x, sigma)");
  EXPECT_EQ(lab.node().atom, AtomKind::kLabel);
  EXPECT_EQ(lab.node().symbol, "sigma");
}

TEST(ParseFormula, EqualityVariants) {
  Formula node_eq = MustParse("x = y");
  EXPECT_EQ(node_eq.node().atom, AtomKind::kEq);
  EXPECT_EQ(node_eq.node().terms[0].kind, Term::Kind::kVar);

  Formula val_eq = MustParse("val(a, x) = val(b, y)");
  EXPECT_EQ(val_eq.node().terms[0].kind, Term::Kind::kAttrOfVar);
  EXPECT_EQ(val_eq.node().terms[0].attr, "a");
  EXPECT_EQ(val_eq.node().terms[1].var, "y");

  Formula val_const = MustParse("val(a, x) = -12");
  EXPECT_EQ(val_const.node().terms[1].kind, Term::Kind::kIntConst);
  EXPECT_EQ(val_const.node().terms[1].value, -12);

  Formula val_str = MustParse("val(a, x) = \"hello\"");
  EXPECT_EQ(val_str.node().terms[1].kind, Term::Kind::kStrConst);
  EXPECT_EQ(val_str.node().terms[1].text, "hello");
}

TEST(ParseFormula, NotEqualDesugars) {
  Formula f = MustParse("x != y");
  ASSERT_EQ(f.node().kind, FormulaKind::kNot);
  EXPECT_EQ(f.node().children[0].node().atom, AtomKind::kEq);
}

TEST(ParseFormula, StoreAtoms) {
  Formula f = MustParse("X1(u, v)");
  EXPECT_EQ(f.node().atom, AtomKind::kRelation);
  EXPECT_EQ(f.node().symbol, "X1");
  ASSERT_EQ(f.node().terms.size(), 2u);

  Formula nullary = MustParse("Flag()");
  EXPECT_EQ(nullary.node().terms.size(), 0u);

  Formula with_const = MustParse("X(3, \"s\", attr(a), u)");
  ASSERT_EQ(with_const.node().terms.size(), 4u);
  EXPECT_EQ(with_const.node().terms[0].kind, Term::Kind::kIntConst);
  EXPECT_EQ(with_const.node().terms[1].kind, Term::Kind::kStrConst);
  EXPECT_EQ(with_const.node().terms[2].kind, Term::Kind::kCurrentAttr);
  EXPECT_EQ(with_const.node().terms[3].kind, Term::Kind::kVar);
}

TEST(ParseFormula, CurrentAttrEquality) {
  Formula f = MustParse("u = attr(a)");
  EXPECT_EQ(f.node().terms[1].kind, Term::Kind::kCurrentAttr);
  EXPECT_EQ(f.node().terms[1].attr, "a");
}

TEST(ParseFormula, NotBindsTighterThanAnd) {
  Formula f = MustParse("!root(x) & leaf(x)");
  EXPECT_EQ(f.node().kind, FormulaKind::kAnd);
  EXPECT_EQ(f.node().children[0].node().kind, FormulaKind::kNot);
}

TEST(ParseFormula, PrimedVariables) {
  Formula f = MustParse("x' = y''");
  EXPECT_EQ(f.node().terms[0].var, "x'");
  EXPECT_EQ(f.node().terms[1].var, "y''");
}

TEST(ParseFormula, Errors) {
  EXPECT_FALSE(ParseFormula("").ok());
  EXPECT_FALSE(ParseFormula("E(x)").ok());
  EXPECT_FALSE(ParseFormula("E(x, y) &").ok());
  EXPECT_FALSE(ParseFormula("exists leaf(x)").ok());   // reserved var
  EXPECT_FALSE(ParseFormula("exists 3 leaf(x)").ok());
  EXPECT_FALSE(ParseFormula("(root(x)").ok());
  EXPECT_FALSE(ParseFormula("root(x) leaf(x)").ok());
  EXPECT_FALSE(ParseFormula("val(a x) = 1").ok());
  EXPECT_FALSE(ParseFormula("x =").ok());
  EXPECT_FALSE(ParseFormula("= x").ok());
  EXPECT_FALSE(ParseFormula("val = 3").ok());          // reserved as term
  EXPECT_FALSE(ParseFormula("x ~ y").ok());
  EXPECT_FALSE(ParseFormula("\"unclosed").ok());
}

/// Integer constants lie strictly between kBottom and kStringBase: one
/// outside would compare equal to a delimiter's kBottom or to an
/// interned string, and an overflowing numeral must not clamp.
TEST(ParseFormula, IntegerConstantsThatWouldAliasAreRejected) {
  for (const char* src : {"val(a, x) = 4611686018427387904",     // 2^62
                          "val(a, x) = 4611686018427387905",
                          "val(a, x) = 9223372036854775807",
                          "val(a, x) = 99999999999999999999",    // overflow
                          "val(a, x) = -9223372036854775808",    // kBottom
                          "val(a, x) = -99999999999999999999"}) {
    auto r = ParseFormula(src);
    ASSERT_FALSE(r.ok()) << src;
    EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument) << src;
    EXPECT_NE(r.status().message().find("out of range at offset 12"),
              std::string::npos)
        << src << ": " << r.status();
  }
  EXPECT_EQ(MustParse("val(a, x) = 4611686018427387903").node().terms[1].value,
            ValueInterner::kStringBase - 1);
  EXPECT_EQ(MustParse("val(a, x) = -9223372036854775807").node().terms[1].value,
            kBottom + 1);
}

TEST(ParseFormula, PaperExampleSection23) {
  // phi(x,y) of Section 2.3: exists y2 exists y3 (desc(x,y) & desc(y,y2)
  // & E(y,y3) & lab(x,a) & lab(y,b) & lab(y2,c) & lab(y3,d)).
  auto f = ParseFormula(
      "exists y2 exists y3 (desc(x, y) & desc(y, y2) & E(y, y3) & "
      "lab(x, a) & lab(y, b) & lab(y2, c) & lab(y3, d))");
  ASSERT_TRUE(f.ok()) << f.status();
  EXPECT_TRUE(f->IsExistentialPrenex());
  EXPECT_EQ(f->FreeVariables(), (std::set<std::string>{"x", "y"}));
}

}  // namespace
}  // namespace treewalk
