// E21: the reference evaluator against the compiled path, materialized
// and seeded (docs/PLANNER.md).
//
// Each workload is one end-to-end selector-serving task — build whatever
// the path needs, and answer a fixed spread of origins — timed cold, the
// honest bound for a run that meets the selector once:
//
//   cheap_guarded    a guarded single-join on a large tree: the
//                    reference evaluator answers from the origins'
//                    children while materializing must first build an
//                    8192-node satisfier relation
//   quantified_small a quantifier-depth-2 selector on a 256-node tree:
//                    the reference evaluator pays n^2 per origin
//   quantified_large the same selector shape on 8192 nodes: the
//                    reference evaluator takes ~seconds
//   quantified_every the same selector from every node of a 1024-node
//                    tree: one materialization shared by all origins
//                    against seeded evaluation from each (no reference
//                    arm)
//
// BM_PlanReference runs SelectNodes from each origin; BM_PlanInterval
// materializes (CompileSelector) and reads rows; BM_PlanSeeded evaluates
// seeded from each origin (PrepareSelector), which is what the
// interpreter runs for every selector the compiler accepts
// (src/logic/planned_selector.h).  bench_every_origin extends
// quantified_every to other tree shapes and selectors (E23).  Compiled
// arms cross-check against OracleAnswers at every measured origin before
// timing, so a win is only ever a win on identical answers.

#include <benchmark/benchmark.h>

#include <cstdint>
#include <string>
#include <vector>

#include "src/logic/compile.h"
#include "src/logic/parser.h"
#include "src/logic/tree_eval.h"
#include "src/tree/axis_index.h"
#include "src/tree/generate.h"

namespace {

using namespace treewalk;

constexpr const char* kCheapGuarded = "E(x, y) & lab(y, a)";
constexpr const char* kQuantified =
    "exists z (E(x, z) & exists w (E(z, w) & desc(w, y)))";

Tree Input(int n) {
  std::mt19937 rng(97);
  RandomTreeOptions options;
  options.num_nodes = n;
  options.labels = {"a", "b"};
  options.attributes = {};
  return RandomTree(rng, options);
}

std::vector<NodeId> SpreadOrigins(const Tree& t, int count) {
  std::vector<NodeId> origins;
  for (int i = 0; i < count; ++i) {
    origins.push_back(static_cast<NodeId>(
        (static_cast<std::size_t>(i) * t.size()) / count));
  }
  return origins;
}

/// Origins past which the oracle stops asking the reference evaluator
/// at every origin: the every-origin workload would take minutes.
constexpr std::size_t kReferenceOrigins = 256;

/// The answers every arm is checked against: the reference evaluator's
/// at every origin, or, past kReferenceOrigins origins, the materialized
/// relation's (CompileSelector), itself checked against the reference
/// at 8 spread origins.
std::vector<std::vector<NodeId>> OracleAnswers(
    benchmark::State& state, const Tree& t, const Formula& phi,
    const std::vector<NodeId>& origins) {
  std::vector<std::vector<NodeId>> answers;
  if (origins.size() <= kReferenceOrigins) {
    for (NodeId origin : origins) {
      auto r = SelectNodes(t, phi, origin);
      if (!r.ok()) {
        state.SkipWithError(r.status().ToString().c_str());
        return {};
      }
      answers.push_back(std::move(*r));
    }
    return answers;
  }
  AxisIndex index(t);
  auto compiled = CompileSelector(index, phi);
  if (!compiled.ok()) {
    state.SkipWithError(compiled.status().ToString().c_str());
    return {};
  }
  for (NodeId origin : origins) answers.push_back(compiled->SelectFrom(origin));
  for (std::size_t i = 0; i < origins.size(); i += origins.size() / 8) {
    auto r = SelectNodes(t, phi, origins[i]);
    if (!r.ok() || *r != answers[i]) {
      state.SkipWithError("materialized/reference mismatch");
      return {};
    }
  }
  return answers;
}

void BM_PlanReference(benchmark::State& state, const char* selector) {
  Tree t = Input(static_cast<int>(state.range(0)));
  Formula phi = std::move(ParseFormula(selector)).value();
  std::vector<NodeId> origins =
      SpreadOrigins(t, static_cast<int>(state.range(1)));
  std::size_t selected = 0;
  for (auto _ : state) {
    selected = 0;
    for (NodeId origin : origins) {
      auto r = SelectNodes(t, phi, origin);
      if (!r.ok()) {
        state.SkipWithError(r.status().ToString().c_str());
        return;
      }
      selected += r->size();
    }
  }
  state.counters["selected"] = static_cast<double>(selected);
}

void BM_PlanInterval(benchmark::State& state, const char* selector) {
  Tree t = Input(static_cast<int>(state.range(0)));
  Formula phi = std::move(ParseFormula(selector)).value();
  std::vector<NodeId> origins =
      SpreadOrigins(t, static_cast<int>(state.range(1)));
  auto answers = OracleAnswers(state, t, phi, origins);
  if (answers.empty()) return;
  {
    AxisIndex index(t);
    auto compiled = CompileSelector(index, phi);
    if (!compiled.ok()) {
      state.SkipWithError(compiled.status().ToString().c_str());
      return;
    }
    for (std::size_t i = 0; i < origins.size(); ++i) {
      if (compiled->SelectFrom(origins[i]) != answers[i]) {
        state.SkipWithError("compiled/reference mismatch");
        return;
      }
    }
  }
  std::size_t selected = 0;
  for (auto _ : state) {
    AxisIndex index(t);
    auto compiled = CompileSelector(index, phi);
    if (!compiled.ok()) {
      state.SkipWithError(compiled.status().ToString().c_str());
      return;
    }
    selected = 0;
    for (NodeId origin : origins) {
      selected += compiled->SelectFrom(origin).size();
    }
  }
  state.counters["selected"] = static_cast<double>(selected);
}

/// Seeded evaluation from every origin, never materializing (E23): what
/// the interpreter runs for a selector the compiler accepts.
void BM_PlanSeeded(benchmark::State& state, const char* selector) {
  Tree t = Input(static_cast<int>(state.range(0)));
  Formula phi = std::move(ParseFormula(selector)).value();
  std::vector<NodeId> origins =
      SpreadOrigins(t, static_cast<int>(state.range(1)));
  auto answers = OracleAnswers(state, t, phi, origins);
  if (answers.empty()) return;
  std::size_t selected = 0;
  for (auto _ : state) {
    AxisIndex index(t);
    auto seeded = PrepareSelector(index, phi);
    if (!seeded.ok()) {
      state.SkipWithError(seeded.status().ToString().c_str());
      return;
    }
    selected = 0;
    for (std::size_t i = 0; i < origins.size(); ++i) {
      auto answer = seeded->SelectFrom(origins[i]);
      if (!answer.ok() || *answer != answers[i]) {
        state.SkipWithError("seeded/reference mismatch");
        return;
      }
      selected += answer->size();
    }
  }
  state.counters["selected"] = static_cast<double>(selected);
}

#define PLANNER_WORKLOAD(workload, selector, n, origins)              \
  BENCHMARK_CAPTURE(BM_PlanReference, workload, selector)             \
      ->Args({n, origins})->Unit(benchmark::kMicrosecond);            \
  BENCHMARK_CAPTURE(BM_PlanInterval, workload, selector)              \
      ->Args({n, origins})->Unit(benchmark::kMicrosecond);            \
  BENCHMARK_CAPTURE(BM_PlanSeeded, workload, selector)                \
      ->Args({n, origins})->Unit(benchmark::kMicrosecond)

PLANNER_WORKLOAD(cheap_guarded, kCheapGuarded, 8192, 256);
PLANNER_WORKLOAD(quantified_small, kQuantified, 256, 8);
PLANNER_WORKLOAD(quantified_large, kQuantified, 8192, 8);

// Every node an origin, as a program asking its selector at each node
// of a traversal does: seeded evaluation from each origin against one
// materialization plus a row read each (E23).  No reference arm — at
// ~0.1 s an origin it would run for minutes.
BENCHMARK_CAPTURE(BM_PlanInterval, quantified_every, kQuantified)
    ->Args({1024, 1024})->Unit(benchmark::kMicrosecond);
BENCHMARK_CAPTURE(BM_PlanSeeded, quantified_every, kQuantified)
    ->Args({1024, 1024})->Unit(benchmark::kMicrosecond);

}  // namespace
