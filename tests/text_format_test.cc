#include <gtest/gtest.h>

#include <random>
#include <string>
#include <utility>

#include "src/automata/interpreter.h"
#include "src/automata/library.h"
#include "src/automata/text_format.h"
#include "src/tree/generate.h"
#include "src/tree/term_io.h"

namespace treewalk {
namespace {

TEST(ParseProgramText, MinimalProgram) {
  auto p = ParseProgramText(R"twp(
# accept every tree
class tw
states q0 qf
rule #top q0 [true] move stay qf
)twp");
  ASSERT_TRUE(p.ok()) << p.status();
  EXPECT_EQ(p->program_class(), ProgramClass::kTw);
  EXPECT_EQ(p->rules().size(), 1u);
  auto t = ParseTerm("a(b)");
  ASSERT_TRUE(t.ok());
  auto verdict = Accepts(*p, *t);
  ASSERT_TRUE(verdict.ok());
  EXPECT_TRUE(*verdict);
}

TEST(ParseProgramText, AllDirectivesAndActions) {
  auto p = ParseProgramText(R"twp(
class twrl
states q0 qf
register X1 1
register R 2
init X1 { (5) (6) }
init R { (1 2) (3 4) }
rule #top q0 [exists u X1(u)] atp X1 "desc(x, y) & leaf(y)" call q1
rule *    call [true] update X1(u) "u = attr(a)" ret
rule *    ret [true] move stay qf
rule #top q1 [true] move down q2
rule #open q2 [true] move right qf
)twp");
  ASSERT_TRUE(p.ok()) << p.status();
  EXPECT_EQ(p->program_class(), ProgramClass::kTwRL);
  EXPECT_EQ(p->initial_store().num_relations(), 2u);
  EXPECT_EQ(p->initial_store().At(0).tuples(),
            (std::vector<Tuple>{{5}, {6}}));
  EXPECT_EQ(p->initial_store().At(1).tuples(),
            (std::vector<Tuple>{{1, 2}, {3, 4}}));
  EXPECT_EQ(p->rules().size(), 5u);
  EXPECT_EQ(p->rules()[0].action.kind, Action::Kind::kLookAhead);
  EXPECT_EQ(p->rules()[1].action.kind, Action::Kind::kUpdate);
}

/// Interned strings take the values from 2^62 up and the delimiters
/// carry ⊥ = -2^63, so an init value in either range would compare
/// equal to a string or to ⊥.  Init values and register arities are
/// refused at their line unless they are in-range decimal integers.
TEST(ParseProgramText, InitValuesAndAritiesMustBeInRangeIntegers) {
  auto program = [](const std::string& arity, const std::string& value) {
    return ParseProgramText("class twr\nstates q0 qf\nregister X1 " + arity +
                            "\ninit X1 { (" + value +
                            ") }\nrule #top q0 [X1(\"foo\")] move stay qf\n");
  };
  const std::pair<std::string, std::string> refused[] = {
      {"1", "4611686018427387904"},   // 2^62: the first interned string
      {"1", "-9223372036854775808"},  // ⊥
      {"1", "99999999999999999999"},  // overflows int64
      {"1", "abc"},
      {"1", "5x"},
      {"one", "5"},
      {"-1", "5"},
  };
  for (const auto& [arity, value] : refused) {
    auto p = program(arity, value);
    ASSERT_FALSE(p.ok()) << arity << " " << value;
    EXPECT_EQ(p.status().code(), StatusCode::kInvalidArgument);
    const std::string line = arity == "1" ? "line 4: " : "line 3: ";
    EXPECT_NE(p.status().message().find(line), std::string::npos)
        << p.status();
  }
  for (const char* value : {"4611686018427387903", "-9223372036854775807"}) {
    auto p = program("1", value);
    ASSERT_TRUE(p.ok()) << value << ": " << p.status();
    EXPECT_EQ(p->initial_store().At(0).tuples(),
              (std::vector<Tuple>{{std::stoll(value)}}));
  }
}

TEST(ParseProgramText, Errors) {
  EXPECT_FALSE(ParseProgramText("rule a q0 [true] move stay qf").ok());
  EXPECT_FALSE(ParseProgramText("class bogus").ok());
  EXPECT_FALSE(ParseProgramText("class tw\nstates q0").ok());
  EXPECT_FALSE(
      ParseProgramText("class tw\nstates q0 qf\nrule a q0 [true] move "
                       "sideways qf")
          .ok());
  EXPECT_FALSE(
      ParseProgramText("class tw\nstates q0 qf\nrule a q0 [true] explode")
          .ok());
  EXPECT_FALSE(
      ParseProgramText("class tw\nstates q0 qf\nbogus directive").ok());
  EXPECT_FALSE(ParseProgramText("class tw\nstates q0 qf\nrule a q0 "
                                "[unterminated move stay qf")
                   .ok());
  // Class restrictions still apply through the text path.
  EXPECT_FALSE(ParseProgramText(R"twp(
class tw
states q0 qf
register X 1
)twp")
                   .ok());
}

TEST(ParseProgramText, CommentsAndBlankLines) {
  auto p = ParseProgramText(R"twp(
# leading comment

class tw
   # indented comment
states q0 qf
rule #top q0 [true] move stay qf
)twp");
  EXPECT_TRUE(p.ok()) << p.status();
}

TEST(ProgramToText, RoundTripsLibraryPrograms) {
  std::mt19937 rng(43);
  RandomTreeOptions options;
  options.num_nodes = 12;
  options.labels = {"sigma", "delta"};
  options.attributes = {"a"};
  options.value_range = 3;

  struct Named {
    const char* name;
    Result<Program> program;
  } programs[] = {
      {"example32", Example32Program()},
      {"has-label", HasLabelProgram("sigma")},
      {"parity", ParityProgram("delta")},
      {"root-value", RootValueAtSomeLeafProgram()},
      {"set-eq", SetEqualityProgram(-1)},
      {"set-eq-atp", SetEqualityViaLookaheadProgram(-1)},
  };
  for (auto& [name, program] : programs) {
    ASSERT_TRUE(program.ok()) << name << ": " << program.status();
    std::string text = ProgramToText(*program);
    auto round = ParseProgramText(text);
    ASSERT_TRUE(round.ok()) << name << ": " << round.status() << "\n" << text;
    // Same observable behaviour on random inputs.
    for (int trial = 0; trial < 5; ++trial) {
      Tree t = RandomTree(rng, options);
      auto a = Accepts(*program, t);
      auto b = Accepts(*round, t);
      ASSERT_TRUE(a.ok() && b.ok()) << name;
      EXPECT_EQ(*a, *b) << name << " trial " << trial;
    }
    // And the text itself is a fixpoint.
    EXPECT_EQ(ProgramToText(*round), text) << name;
  }
}

TEST(ProgramToText, EmitsInitialRegisters) {
  auto p = ParseProgramText(R"twp(
class twr
states q0 qf
register X 1
init X { (7) }
rule #top q0 [exists u (X(u) & u = 7)] move stay qf
)twp");
  ASSERT_TRUE(p.ok()) << p.status();
  std::string text = ProgramToText(*p);
  EXPECT_NE(text.find("init X { (7) }"), std::string::npos) << text;
  auto t = ParseTerm("a");
  auto verdict = Accepts(*p, *t);
  ASSERT_TRUE(verdict.ok()) << verdict.status();
  EXPECT_TRUE(*verdict);
}

}  // namespace
}  // namespace treewalk
