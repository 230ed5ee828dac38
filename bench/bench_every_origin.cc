// E23: a selector asked from every node of a tree — seeded evaluation
// from each origin (what the interpreter runs) against one
// materialization plus a row read per origin (CompileSelector) — over
// five tree shapes and five selectors (docs/EVALUATOR.md, "Seeded,
// never materialized").
//
// Each arm times the whole task from a bare tree: axis index, prepare
// or compile, and an answer from every node.  Before timing, the seeded
// and the materialized answers are compared at every origin (both are
// held to the reference evaluator by compiled_eval_test and
// planner_test).  Not gated: this binary reproduces E23's table; the
// gated arms are bench_planner's quantified_every workload and
// bench_selectors' BM_SeededLookahead.

#include <benchmark/benchmark.h>

#include <optional>
#include <random>
#include <string>
#include <vector>

#include "src/logic/compile.h"
#include "src/logic/parser.h"
#include "src/tree/axis_index.h"
#include "src/tree/generate.h"
#include "src/tree/tree.h"

namespace {

using namespace treewalk;

enum class Shape { kRandom, kDocument, kExample32, kPath, kCaterpillar };

struct NamedShape {
  const char* name;
  Shape shape;
};

constexpr NamedShape kShapes[] = {
    {"random", Shape::kRandom},       {"document", Shape::kDocument},
    {"example32", Shape::kExample32}, {"path", Shape::kPath},
    {"caterpillar", Shape::kCaterpillar},
};

struct NamedSelector {
  const char* name;
  const char* text;
};

constexpr NamedSelector kSelectors[] = {
    {"desc_desc", "exists z (desc(x, z) & desc(y, z))"},
    {"desc_e", "exists z (desc(x, z) & E(z, y))"},
    {"quantified", "exists z (E(x, z) & exists w (E(z, w) & desc(w, y)))"},
    {"lookahead", "exists z (desc(x, y) & lab(y, a) & E(y, z) & lab(z, b))"},
    {"guarded", "E(x, y) & lab(y, a)"},
};

Tree Input(Shape shape, int n) {
  std::mt19937 rng(97);
  switch (shape) {
    case Shape::kRandom: {
      RandomTreeOptions options;
      options.num_nodes = n;
      options.labels = {"a", "b"};
      options.attributes = {};
      return RandomTree(rng, options);
    }
    case Shape::kDocument:
      return XmlLikeTree(rng, n);
    case Shape::kExample32:
      return Example32Tree(rng, n, /*uniform=*/true);
    case Shape::kPath:
    case Shape::kCaterpillar: {
      // The caterpillar's spine nodes each have a leaf child before the
      // next spine node, so no two ancestors of a node are adjacent.
      TreeBuilder b;
      TreeBuilder::Ref s = b.AddRoot("a");
      for (int i = 1; i < n; ++i) {
        if (shape == Shape::kCaterpillar && i % 2 == 1) {
          b.AddChild(s, "b");
        } else {
          s = b.AddChild(s, i % 2 == 1 ? "b" : "a");
        }
      }
      return b.Build();
    }
  }
  return Tree();
}

/// Every node's answer, seeded or materialized; empty on a decline.
std::optional<std::vector<std::vector<NodeId>>> AnswerAll(
    const Tree& t, const Formula& phi, bool materialized) {
  AxisIndex index(t);
  std::vector<std::vector<NodeId>> rows;
  rows.reserve(t.size());
  if (materialized) {
    auto compiled = CompileSelector(index, phi);
    if (!compiled.ok()) return std::nullopt;
    for (NodeId u = 0; u < static_cast<NodeId>(t.size()); ++u) {
      rows.push_back(compiled->SelectFrom(u));
    }
    return rows;
  }
  auto seeded = PrepareSelector(index, phi);
  if (!seeded.ok()) return std::nullopt;
  for (NodeId u = 0; u < static_cast<NodeId>(t.size()); ++u) {
    auto row = seeded->SelectFrom(u);
    if (!row.ok()) return std::nullopt;
    rows.push_back(std::move(row).value());
  }
  return rows;
}

void BM_EveryOrigin(benchmark::State& state, Shape shape,
                    const char* selector, bool materialized) {
  const Tree t = Input(shape, static_cast<int>(state.range(0)));
  const Formula phi = std::move(ParseFormula(selector)).value();
  auto mine = AnswerAll(t, phi, materialized);
  auto other = AnswerAll(t, phi, !materialized);
  if (!mine.has_value() || !other.has_value() || *mine != *other) {
    state.SkipWithError("seeded/materialized mismatch or decline");
    return;
  }
  std::size_t selected = 0;
  for (auto _ : state) {
    auto rows = AnswerAll(t, phi, materialized);
    selected = 0;
    for (const auto& row : *rows) selected += row.size();
  }
  state.counters["nodes"] = static_cast<double>(t.size());
  state.counters["selected"] = static_cast<double>(selected);
}

const bool kRegistered = [] {
  for (const NamedShape& shape : kShapes) {
    for (const NamedSelector& selector : kSelectors) {
      for (bool materialized : {false, true}) {
        const std::string name = std::string("BM_EveryOrigin/") +
                                 shape.name + "/" + selector.name + "/" +
                                 (materialized ? "materialized" : "seeded");
        benchmark::RegisterBenchmark(name.c_str(), BM_EveryOrigin,
                                     shape.shape, selector.text, materialized)
            ->Arg(1024)
            ->Arg(2048)
            ->Unit(benchmark::kMillisecond);
      }
    }
  }
  return true;
}();

}  // namespace
