// E11: interpreter microbenchmarks — the cost centers of the Definition
// 3.1 semantics: pure walking throughput, store updates via
// active-domain FO, and selector (atp) evaluation.  Delimiting is
// timed by the gated bench_selectors (BM_Delimit).

#include <benchmark/benchmark.h>

#include <random>

#include "src/automata/builder.h"
#include "src/automata/interpreter.h"
#include "src/automata/library.h"
#include "src/logic/parser.h"
#include "src/logic/tree_eval.h"
#include "src/relstore/store_eval.h"
#include "src/tree/delimited.h"
#include "src/tree/generate.h"

namespace {

using namespace treewalk;

Tree Input(int n) {
  std::mt19937 rng(29);
  RandomTreeOptions options;
  options.num_nodes = n;
  options.value_range = 8;
  return RandomTree(rng, options);
}

/// Raw walking throughput: the full-DFS HasLabel program on a tree
/// without the target label (worst case: visits everything).
void BM_WalkThroughput(benchmark::State& state) {
  Program p = std::move(HasLabelProgram("missing")).value();
  Tree t = Input(static_cast<int>(state.range(0)));
  DelimitedTree delimited = Delimit(t);
  RunOptions options;
  options.max_steps = 100'000'000;
  Interpreter interpreter(p, options);
  std::int64_t steps = 0;
  for (auto _ : state) {
    auto r = interpreter.RunDelimited(delimited.tree);
    if (!r.ok()) state.SkipWithError(r.status().ToString().c_str());
    steps = r->stats.steps;
  }
  state.SetItemsProcessed(state.iterations() * steps);
  state.counters["steps"] = static_cast<double>(steps);
}

/// One relational store update: X := {x, y | X(x,y) | (P(x) & y = c)}.
void BM_StoreUpdate(benchmark::State& state) {
  int n = static_cast<int>(state.range(0));
  Store store = std::move(Store::Create({{"X", 2}, {"P", 1}})).value();
  for (int i = 0; i < n; ++i) store.Find("X")->Insert({i, i + 1});
  store.Find("P")->Insert({n});
  StoreContext context;
  context.store = &store;
  context.current_attrs = {{"id", n + 1}};
  Formula psi =
      std::move(ParseFormula("X(u, v) | (P(u) & v = attr(id))")).value();
  for (auto _ : state) {
    auto r = EvalStoreFormula(context, psi, {"u", "v"});
    if (!r.ok()) state.SkipWithError(r.status().ToString().c_str());
    benchmark::DoNotOptimize(r->size());
  }
  state.counters["tuples"] = n + 1;
}

/// Selector evaluation: the Example 3.2 leaf-descendant selector.
void BM_SelectorEval(benchmark::State& state) {
  Tree t = Input(static_cast<int>(state.range(0)));
  DelimitedTree delimited = Delimit(t);
  Formula phi = std::move(ParseFormula(
                    "exists z (desc(x, y) & E(y, z) & lab(z, #leaf))"))
                    .value();
  std::size_t selected = 0;
  for (auto _ : state) {
    auto r = SelectNodes(delimited.tree, phi, delimited.tree.root());
    if (!r.ok()) state.SkipWithError(r.status().ToString().c_str());
    selected = r->size();
  }
  state.counters["selected"] = static_cast<double>(selected);
}

/// Guard evaluation: the singleton check of Example 3.2.
void BM_GuardEval(benchmark::State& state) {
  int n = static_cast<int>(state.range(0));
  Store store = std::move(Store::Create({{"X1", 1}})).value();
  for (int i = 0; i < n; ++i) store.Find("X1")->Insert({i});
  StoreContext context;
  context.store = &store;
  Formula xi =
      std::move(ParseFormula("forall u forall v (X1(u) & X1(v) -> u = v)"))
          .value();
  for (auto _ : state) {
    auto r = EvalStoreSentence(context, xi);
    if (!r.ok()) state.SkipWithError(r.status().ToString().c_str());
    benchmark::DoNotOptimize(*r);
  }
}

BENCHMARK(BM_WalkThroughput)->Arg(100)->Arg(1000)->Arg(10000)
    ->Unit(benchmark::kMicrosecond);
BENCHMARK(BM_StoreUpdate)->Arg(4)->Arg(16)->Arg(64)
    ->Unit(benchmark::kMicrosecond);
BENCHMARK(BM_SelectorEval)->Arg(50)->Arg(200)->Arg(800)
    ->Unit(benchmark::kMicrosecond);
BENCHMARK(BM_GuardEval)->Arg(2)->Arg(8)->Arg(32)
    ->Unit(benchmark::kMicrosecond);

}  // namespace
