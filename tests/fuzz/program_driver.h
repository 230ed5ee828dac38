#ifndef TREEWALK_TESTS_FUZZ_PROGRAM_DRIVER_H_
#define TREEWALK_TESTS_FUZZ_PROGRAM_DRIVER_H_

// Shared body of the .twp program fuzzer: parse the text (the line
// tokenizer, the rule grammar, guards and selectors through the formula
// parser, and program validation in Build()), and when it parses, run
// the program on a small fixed tree through both the direct interpreter
// and the configuration-graph evaluator of Theorem 7.1(2), with small
// step and nesting budgets.  When both reach a verdict the verdicts
// must agree; an error on either side (a budget, nondeterminism, a
// discipline violation) is not a verdict.  Programs whose formulas
// nest deeper than the driver can evaluate quickly are parsed only.
// Driven by fuzz_program.cc under libFuzzer and replayed over the seed
// corpus by fuzz_corpus_test.cc in tier-1 builds.

#include <algorithm>
#include <string_view>

#include "src/automata/interpreter.h"
#include "src/automata/text_format.h"
#include "src/simulation/config_graph.h"
#include "src/tree/term_io.h"

namespace treewalk {

struct ProgramFuzzOutcome {
  bool parsed = false;
  /// Both evaluators ran to a verdict.
  bool compared = false;
  /// False only when both reached a verdict and the verdicts differ.
  bool agrees = true;
};

/// Quantifier nesting depth of `f`.
inline int QuantifierDepth(const Formula& f) {
  if (!f.valid()) return 0;
  int deepest = 0;
  for (const Formula& child : f.node().children) {
    deepest = std::max(deepest, QuantifierDepth(child));
  }
  const FormulaKind kind = f.node().kind;
  return deepest +
         (kind == FormulaKind::kExists || kind == FormulaKind::kForall ? 1 : 0);
}

/// True if every formula is cheap on the fixed tree: store formulas
/// range over its handful of values, selectors over its ~30 delimited
/// nodes.
inline bool CheapToRun(const Program& program) {
  for (const Rule& rule : program.rules()) {
    if (QuantifierDepth(rule.guard) > 3) return false;
    if (QuantifierDepth(rule.action.update) +
            static_cast<int>(rule.action.update_vars.size()) >
        4) {
      return false;
    }
    if (QuantifierDepth(rule.action.selector) > 2) return false;
  }
  return true;
}

inline ProgramFuzzOutcome RunProgramFuzzInput(std::string_view source) {
  ProgramFuzzOutcome outcome;
  Result<Program> program = ParseProgramText(source);
  if (!program.ok()) return outcome;
  outcome.parsed = true;
  if (!CheapToRun(*program)) return outcome;

  // Labels and values the seeds use; a, b, sigma and delta nodes, leaves
  // and inner nodes, equal and distinct values of attribute a.
  static const Tree* const tree = new Tree(
      std::move(ParseTerm("a[a=1](b[a=2](a[a=1]), sigma[a=0](delta[a=2], "
                          "b[a=1], needle[a=0]), a[a=2])"))
          .value());
  RunOptions options;
  options.max_steps = 2000;
  options.max_depth = 6;
  Result<RunResult> direct = Interpreter(*program, options).Run(*tree);
  Result<ConfigGraphResult> graph =
      EvaluateViaConfigGraph(*program, *tree, options);
  if (direct.ok() && graph.ok()) {
    outcome.compared = true;
    outcome.agrees = direct->accepted == graph->accepted;
  }
  return outcome;
}

}  // namespace treewalk

#endif  // TREEWALK_TESTS_FUZZ_PROGRAM_DRIVER_H_
