#include <gtest/gtest.h>

#include "src/automata/interpreter.h"
#include "src/automata/library.h"
#include "src/tree/delimited.h"
#include "src/tree/term_io.h"
#include "src/tree/xml_io.h"

namespace treewalk {
namespace {

TEST(ParseXml, SimpleDocument) {
  auto r = ParseXml("<doc><item id=\"1\"/><item id=\"2\"/></doc>");
  ASSERT_TRUE(r.ok()) << r.status();
  EXPECT_EQ(r->size(), 3u);
  EXPECT_EQ(r->LabelName(r->label(0)), "doc");
  AttrId id = r->FindAttribute("id");
  EXPECT_EQ(r->attr(id, 1), 1);
  EXPECT_EQ(r->attr(id, 2), 2);
}

TEST(ParseXml, StringAndNumericAttributes) {
  auto r = ParseXml("<a name=\"x\" n=\"42\" neg=\"-3\" mixed=\"42x\"/>");
  ASSERT_TRUE(r.ok()) << r.status();
  EXPECT_TRUE(ValueInterner::IsString(r->attr(r->FindAttribute("name"), 0)));
  EXPECT_EQ(r->attr(r->FindAttribute("n"), 0), 42);
  EXPECT_EQ(r->attr(r->FindAttribute("neg"), 0), -3);
  EXPECT_TRUE(ValueInterner::IsString(r->attr(r->FindAttribute("mixed"), 0)));
}

/// A numeral outside the integer range (kBottom, kStringBase) stays a
/// string, as one that overflows always did: read as an integer, 2^62
/// would equal the first interned string ("foo" below), and
/// -9223372036854775808 would equal kBottom.
TEST(ParseXml, NumeralsThatWouldAliasStayStrings) {
  auto r = ParseXml(
      "<r><delta><sigma a=\"foo\"/><sigma a=\"4611686018427387904\"/>"
      "<sigma a=\"-9223372036854775808\"/><sigma a=\"99999999999999999999\"/>"
      "<sigma a=\"9223372036854775807\"/></delta></r>");
  ASSERT_TRUE(r.ok()) << r.status();
  const AttrId a = r->FindAttribute("a");
  const DataValue foo = r->attr(a, 2);
  for (NodeId u = 3; u < 7; ++u) {
    const DataValue v = r->attr(a, u);
    EXPECT_TRUE(ValueInterner::IsString(v)) << u;
    EXPECT_NE(v, foo) << u;
    EXPECT_NE(v, kBottom) << u;
  }
  EXPECT_EQ(r->values().Render(r->attr(a, 3)), "4611686018427387904");
  EXPECT_NE(r->attr(a, 5), r->attr(a, 6));

  // Example 3.2: the two leaves under delta do not share a value.
  auto two_leaves = ParseXml(
      "<r><delta><sigma a=\"foo\"/><sigma a=\"4611686018427387904\"/>"
      "</delta></r>");
  ASSERT_TRUE(two_leaves.ok()) << two_leaves.status();
  Program example32 = std::move(Example32Program("a")).value();
  auto run = Interpreter(example32).Run(*two_leaves);
  ASSERT_TRUE(run.ok()) << run.status();
  EXPECT_FALSE(run->accepted);

  auto bounds = ParseXml("<r lo=\"-9223372036854775807\" "
                         "hi=\"4611686018427387903\"/>");
  ASSERT_TRUE(bounds.ok()) << bounds.status();
  EXPECT_EQ(bounds->attr(bounds->FindAttribute("lo"), 0), kBottom + 1);
  EXPECT_EQ(bounds->attr(bounds->FindAttribute("hi"), 0),
            ValueInterner::kStringBase - 1);
}

TEST(ParseXml, DeclarationCommentsAndWhitespace) {
  auto r = ParseXml(R"(<?xml version="1.0"?>
    <!-- a catalog -->
    <catalog>
      <!-- inner -->
      <entry/>
    </catalog>)");
  ASSERT_TRUE(r.ok()) << r.status();
  EXPECT_EQ(r->size(), 2u);
}

TEST(ParseXml, Entities) {
  auto r = ParseXml("<a t=\"&lt;&gt;&amp;&quot;&apos;\"/>");
  ASSERT_TRUE(r.ok()) << r.status();
  EXPECT_EQ(r->values().Render(r->attr(0, 0)), "<>&\"'");
}

TEST(ParseXml, SingleQuotedValues) {
  auto r = ParseXml("<a x='7'/>");
  ASSERT_TRUE(r.ok()) << r.status();
  EXPECT_EQ(r->attr(0, 0), 7);
}

TEST(ParseXml, Errors) {
  EXPECT_FALSE(ParseXml("").ok());
  EXPECT_FALSE(ParseXml("<a>").ok());
  EXPECT_FALSE(ParseXml("<a></b>").ok());
  EXPECT_FALSE(ParseXml("<a>text</a>").ok());
  EXPECT_FALSE(ParseXml("<a x=3/>").ok());
  EXPECT_FALSE(ParseXml("<a x=\"1\"").ok());
  EXPECT_FALSE(ParseXml("<a/><b/>").ok());
  EXPECT_FALSE(ParseXml("<a t=\"&bogus;\"/>").ok());
}

TEST(WriteXml, RoundTrip) {
  auto t = ParseXml("<doc v=\"1\"><a name=\"x\"/><b><c/></b></doc>");
  ASSERT_TRUE(t.ok());
  auto xml = WriteXml(*t);
  ASSERT_TRUE(xml.ok()) << xml.status();
  auto t2 = ParseXml(*xml);
  ASSERT_TRUE(t2.ok()) << *xml << "\n" << t2.status();
  EXPECT_EQ(PrintTerm(*t2), PrintTerm(*t));
}

TEST(WriteXml, EscapesSpecialCharacters) {
  TreeBuilder b;
  auto r = b.AddRoot("a");
  b.SetAttrString(r, "t", "<>&\"");
  Tree t = b.Build();
  auto xml = WriteXml(t, /*indent=*/false);
  ASSERT_TRUE(xml.ok());
  EXPECT_EQ(*xml, "<a t=\"&lt;&gt;&amp;&quot;\"/>");
}

TEST(WriteXml, RejectsDelimiterLabels) {
  auto t = ParseTerm("a(b)");
  ASSERT_TRUE(t.ok());
  DelimitedTree d = Delimit(*t);
  EXPECT_FALSE(WriteXml(d.tree).ok());
}

TEST(WriteXml, CompactModeHasNoNewlines) {
  auto t = ParseXml("<a><b/></a>");
  ASSERT_TRUE(t.ok());
  auto xml = WriteXml(*t, /*indent=*/false);
  ASSERT_TRUE(xml.ok());
  EXPECT_EQ(xml->find('\n'), std::string::npos);
  EXPECT_EQ(*xml, "<a><b/></a>");
}

}  // namespace
}  // namespace treewalk
