// Ablations for the design choices DESIGN.md calls out:
//   (a) exact cycle detection in the interpreter (one hashed 8-byte
//       configuration key per step, one store copy per distinct store
//       version) vs budget-only termination;
//   (b) the three tree-walking formalisms on one language (has-label):
//       deterministic tw program, nondeterministic caterpillar product
//       search, bottom-up hedge automaton.

#include <benchmark/benchmark.h>

#include <random>

#include "src/automata/interpreter.h"
#include "src/automata/library.h"
#include "src/caterpillar/caterpillar.h"
#include "src/logic/parser.h"
#include "src/logic/tree_eval.h"
#include "src/regular/library.h"
#include "src/tree/generate.h"

namespace {

using namespace treewalk;

Tree Input(int n) {
  std::mt19937 rng(37);
  RandomTreeOptions options;
  options.num_nodes = n;
  options.labels = {"a", "b"};
  options.attributes = {};
  return RandomTree(rng, options);
}

void BM_CycleDetection(benchmark::State& state, bool detect) {
  Program p = std::move(HasLabelProgram("missing")).value();
  Tree t = Input(static_cast<int>(state.range(0)));
  DelimitedTree delimited = Delimit(t);
  RunOptions options;
  options.max_steps = 100'000'000;
  options.detect_cycles = detect;
  Interpreter interpreter(p, options);
  for (auto _ : state) {
    auto r = interpreter.RunDelimited(delimited.tree);
    if (!r.ok()) state.SkipWithError(r.status().ToString().c_str());
    benchmark::DoNotOptimize(r->accepted);
  }
}

void BM_WithCycleDetection(benchmark::State& state) {
  BM_CycleDetection(state, true);
}
void BM_WithoutCycleDetection(benchmark::State& state) {
  BM_CycleDetection(state, false);
}

void BM_HasLabelWalking(benchmark::State& state) {
  Program p = std::move(HasLabelProgram("b")).value();
  Tree t = Input(static_cast<int>(state.range(0)));
  RunOptions options;
  options.max_steps = 100'000'000;
  Interpreter interpreter(p, options);
  for (auto _ : state) {
    auto r = interpreter.Run(t);
    if (!r.ok()) state.SkipWithError(r.status().ToString().c_str());
    benchmark::DoNotOptimize(r->accepted);
  }
}

void BM_HasLabelCaterpillar(benchmark::State& state) {
  Caterpillar expr =
      std::move(ParseCaterpillar("(down | right)* b")).value();
  Tree t = Input(static_cast<int>(state.range(0)));
  for (auto _ : state) {
    auto r = CaterpillarAccepts(t, expr);
    if (!r.ok()) state.SkipWithError(r.status().ToString().c_str());
    benchmark::DoNotOptimize(*r);
  }
}

void BM_HasLabelHedge(benchmark::State& state) {
  HedgeAutomaton a = HasLabelHedge("b");
  Tree t = Input(static_cast<int>(state.range(0)));
  for (auto _ : state) {
    auto r = a.Accepts(t);
    if (!r.ok()) state.SkipWithError(r.status().ToString().c_str());
    benchmark::DoNotOptimize(*r);
  }
}


/// (c) the SelectNodes range planner: the same selector with planning
/// (positive desc(x,y) conjunct prunes to the subtree) vs defeated
/// planning (wrapped in a disjunction).
void BM_Selector(benchmark::State& state, bool planned) {
  std::mt19937 rng(41);
  RandomTreeOptions options;
  options.num_nodes = static_cast<int>(state.range(0));
  options.labels = {"a", "b"};
  options.attributes = {};
  Tree t = RandomTree(rng, options);
  DelimitedTree delimited = Delimit(t);
  Formula phi = std::move(ParseFormula(
                    "exists z (desc(x, y) & E(y, z) & lab(z, #leaf))"))
                    .value();
  if (!planned) phi = Formula::Or(phi, Formula::False());
  // Select from an original mid-tree node: pruning matters away from the
  // root, and an original node always has at least its leaf cap below.
  NodeId origin = delimited.to_delimited[t.size() / 2];
  std::size_t selected = 0;
  for (auto _ : state) {
    auto r = SelectNodes(delimited.tree, phi, origin);
    if (!r.ok()) state.SkipWithError(r.status().ToString().c_str());
    selected = r->size();
  }
  state.counters["selected"] = static_cast<double>(selected);
}

void BM_SelectorPlanned(benchmark::State& state) {
  BM_Selector(state, true);
}
void BM_SelectorUnplanned(benchmark::State& state) {
  BM_Selector(state, false);
}

BENCHMARK(BM_WithCycleDetection)->Arg(100)->Arg(1000)
    ->Unit(benchmark::kMicrosecond);
BENCHMARK(BM_WithoutCycleDetection)->Arg(100)->Arg(1000)
    ->Unit(benchmark::kMicrosecond);
BENCHMARK(BM_HasLabelWalking)->Arg(100)->Arg(1000)
    ->Unit(benchmark::kMicrosecond);
BENCHMARK(BM_HasLabelCaterpillar)->Arg(100)->Arg(1000)
    ->Unit(benchmark::kMicrosecond);
BENCHMARK(BM_HasLabelHedge)->Arg(100)->Arg(1000)
    ->Unit(benchmark::kMicrosecond);
BENCHMARK(BM_SelectorPlanned)->Arg(200)->Arg(800)
    ->Unit(benchmark::kMicrosecond);
BENCHMARK(BM_SelectorUnplanned)->Arg(200)->Arg(800)
    ->Unit(benchmark::kMicrosecond);

}  // namespace
