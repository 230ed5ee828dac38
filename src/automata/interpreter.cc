#include "src/automata/interpreter.h"

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <map>
#include <optional>
#include <set>
#include <tuple>
#include <utility>

#include "src/common/failpoint.h"
#include "src/common/governor.h"
#include "src/common/metrics.h"
#include "src/logic/planned_selector.h"
#include "src/logic/planner.h"
#include "src/logic/tree_eval.h"
#include "src/relstore/store_eval.h"
#include "src/tree/axis_index.h"
#include "src/tree/tree_stats.h"

namespace treewalk {

const char* RejectReasonName(RejectReason r) {
  switch (r) {
    case RejectReason::kNone:
      return "none";
    case RejectReason::kStuck:
      return "stuck";
    case RejectReason::kCycle:
      return "cycle";
    case RejectReason::kSubcomputationRejected:
      return "subcomputation-rejected";
    case RejectReason::kMoveOffTree:
      return "move-off-tree";
  }
  return "?";
}

namespace {

/// Interpreter instrument family (docs/OBSERVABILITY.md).  RunStats
/// stays the per-run view; these registry counters are its process-wide
/// aggregation, flushed once per run (end of Runner::Run, success or
/// error) so the per-transition hot loop never touches an atomic.
struct InterpMetrics {
  Counter* runs;
  Counter* steps;
  Counter* subcomputations;
  Counter* atp_calls;
  Counter* cache_hits;
  Counter* cache_misses;
  Counter* compiled_evals;
  Counter* reference_evals;
  Counter* store_updates;
  Counter* picks_reference;
  Counter* picks_interval;
  Histogram* compiled_eval_us;
  Histogram* reference_eval_us;

  static InterpMetrics& Get() {
    static InterpMetrics* metrics = [] {
      auto* m = new InterpMetrics;
      MetricsRegistry& r = MetricsRegistry::Global();
      m->runs = r.FindOrCreateCounter("treewalk_interp_runs_total",
                                      "Interpreter runs started");
      m->steps = r.FindOrCreateCounter("treewalk_interp_steps_total",
                                       "Transitions executed");
      m->subcomputations =
          r.FindOrCreateCounter("treewalk_interp_subcomputations_total",
                                "atp() subcomputations spawned");
      m->atp_calls = r.FindOrCreateCounter("treewalk_interp_atp_calls_total",
                                           "atp() rule firings");
      m->cache_hits = r.FindOrCreateCounter(
          "treewalk_interp_selector_cache_total",
          "Selector evaluations answered from the per-run cache",
          {{"outcome", "hit"}});
      m->cache_misses = r.FindOrCreateCounter(
          "treewalk_interp_selector_cache_total",
          "Selector evaluations answered from the per-run cache",
          {{"outcome", "miss"}});
      m->compiled_evals = r.FindOrCreateCounter(
          "treewalk_interp_selector_evals_total",
          "Actual selector evaluations by evaluator path",
          {{"path", "compiled"}});
      m->reference_evals = r.FindOrCreateCounter(
          "treewalk_interp_selector_evals_total",
          "Actual selector evaluations by evaluator path",
          {{"path", "reference"}});
      m->store_updates = r.FindOrCreateCounter(
          "treewalk_interp_store_updates_total", "Register store writes");
      m->picks_reference = r.FindOrCreateCounter(
          "treewalk_planner_picks_total",
          "Cost-based planner strategy picks, one per distinct selector "
          "planned",
          {{"strategy", "reference"}});
      m->picks_interval = r.FindOrCreateCounter(
          "treewalk_planner_picks_total",
          "Cost-based planner strategy picks, one per distinct selector "
          "planned",
          {{"strategy", "compiled-interval"}});
      m->compiled_eval_us = r.FindOrCreateHistogram(
          "treewalk_interp_selector_eval_us",
          "Selector evaluation latency by evaluator path", LatencyBucketsUs(),
          {{"path", "compiled"}});
      m->reference_eval_us = r.FindOrCreateHistogram(
          "treewalk_interp_selector_eval_us",
          "Selector evaluation latency by evaluator path", LatencyBucketsUs(),
          {{"path", "reference"}});
      return m;
    }();
    return *metrics;
  }
};

/// Outcome of one (sub)computation.
struct Outcome {
  bool accepted = false;
  RejectReason reason = RejectReason::kNone;
  /// Content of the first register at acceptance (what atp() collects).
  Relation returned{0};
};

class Runner {
 public:
  Runner(const Program& program, const Tree& tree, const RunOptions& options)
      : program_(program), tree_(tree), options_(options) {
    // Pre-resolve rule labels to symbols; rules whose label the tree
    // never uses can only match via the wildcard.
    for (const Rule& rule : program.rules()) {
      labels_.push_back(rule.label == "*" ? -2 : tree.FindLabel(rule.label));
    }
    // States with at least one exact-label rule, for wildcard shadowing.
    for (const Rule& rule : program.rules()) {
      if (rule.label != "*") {
        exact_keys_.insert(rule.state + "\x1f" + rule.label);
      }
    }
    // Selector identities for the atp() cache.  Rules whose selectors
    // print identically evaluate identically, so they share one cache
    // id (the first such rule's index).  Also collect the store
    // relations each selector mentions for its cache-key fingerprint;
    // selectors are tree formulas, so this is empty today — keeping it
    // in the key means the cache stays correct if selectors ever gain
    // store atoms.
    selector_ids_.resize(program.rules().size(), 0);
    selector_rels_.resize(program.rules().size());
    std::map<std::string, std::size_t> first_use;
    for (std::size_t i = 0; i < program.rules().size(); ++i) {
      const Rule& rule = program.rules()[i];
      if (rule.action.kind != Action::Kind::kLookAhead) continue;
      selector_ids_[i] =
          first_use.emplace(rule.action.selector.ToString(), i).first->second;
      for (const std::string& name : rule.action.selector.RelationNames()) {
        int index = program.initial_store().IndexOf(name);
        if (index >= 0) selector_rels_[i].push_back(index);
      }
    }
  }

  Result<RunResult> Run() {
    Result<Outcome> outcome =
        Compute(tree_.root(), program_.initial_state(),
                program_.initial_store(), /*depth=*/0);
    // Flush stats into the registry whether the run completed or
    // aborted — observability counts work done, not work finished.
    FlushMetrics();
    if (!outcome.ok()) return outcome.status();
    RunResult result;
    result.accepted = outcome->accepted;
    result.reason = outcome->reason;
    result.stats = stats_;
    result.trace = std::move(trace_);
    return result;
  }

 private:
  using ConfigKey = std::tuple<NodeId, std::string, Store>;

  Result<Outcome> Compute(NodeId start, const std::string& start_state,
                          Store store, int depth) {
    if (depth > options_.max_depth) {
      return ResourceExhausted("atp nesting exceeded max_depth=" +
                               std::to_string(options_.max_depth));
    }
    stats_.max_depth_reached = std::max(stats_.max_depth_reached, depth);

    NodeId u = start;
    std::string state = start_state;
    std::set<ConfigKey> visited;
    // The memo lives for this (sub)computation; its budget charge is
    // released with it at scope exit.
    ScopedMemoryCharge memo_charge(options_.governor,
                                   MemoryCategory::kCycleMemo);

    while (true) {
      if (options_.cancel != nullptr &&
          options_.cancel->load(std::memory_order_relaxed)) {
        return Cancelled("run cancelled after " +
                         std::to_string(stats_.steps) + " steps");
      }
      TREEWALK_RETURN_IF_ERROR(GovernorCheckDeadline(options_.governor));
      TREEWALK_FAILPOINT("interpreter/step");
      if (state == program_.final_state()) {
        Outcome out;
        out.accepted = true;
        if (store.num_relations() > 0) out.returned = store.At(0);
        return out;
      }
      if (options_.detect_cycles) {
        if (!visited.insert(ConfigKey(u, state, store)).second) {
          return Rejected(RejectReason::kCycle);
        }
        // ~per-entry footprint: tree-node overhead + key payload, with
        // each store tuple counted at pointer-ish granularity.
        TREEWALK_RETURN_IF_ERROR(memo_charge.Add(
            64 + static_cast<std::int64_t>(state.size()) +
            static_cast<std::int64_t>(store.TotalTuples()) * 24));
      }

      TREEWALK_ASSIGN_OR_RETURN(const Rule* rule, FindRule(u, state, store));
      if (rule == nullptr) return Rejected(RejectReason::kStuck);

      if (++stats_.steps > options_.max_steps) {
        return ResourceExhausted("exceeded max_steps=" +
                                 std::to_string(options_.max_steps));
      }
      if (options_.record_trace &&
          trace_.size() < options_.max_trace_entries) {
        TREEWALK_RETURN_IF_ERROR(
            GovernorCharge(options_.governor, MemoryCategory::kTrace, 128));
      }
      Trace(u, state, *rule);

      const Action& action = rule->action;
      switch (action.kind) {
        case Action::Kind::kMove: {
          NodeId v = ApplyMove(u, action.move);
          if (v == kNoNode) return Rejected(RejectReason::kMoveOffTree);
          u = v;
          break;
        }
        case Action::Kind::kUpdate: {
          StoreContext context = MakeContext(u, store);
          TREEWALK_ASSIGN_OR_RETURN(
              Relation result,
              EvalStoreFormula(context, action.update, action.update_vars));
          TREEWALK_RETURN_IF_ERROR(CheckDiscipline(result, "update"));
          TREEWALK_RETURN_IF_ERROR(store.Replace(
              static_cast<std::size_t>(action.register_index),
              std::move(result)));
          ++stats_.store_updates;
          break;
        }
        case Action::Kind::kLookAhead: {
          ++stats_.subcomputations;
          ++stats_.atp_calls;
          std::size_t rule_index =
              static_cast<std::size_t>(rule - program_.rules().data());
          TREEWALK_ASSIGN_OR_RETURN(
              std::vector<NodeId> selected,
              Select(rule_index, action.selector, u, store));
          if (program_.program_class() == ProgramClass::kTwL &&
              selected.size() > 1) {
            return FailedPrecondition(
                "tw^l look-ahead selected " +
                std::to_string(selected.size()) +
                " nodes; Definition 5.1 allows at most one");
          }
          Relation collected(store.At(0).arity());
          for (NodeId v : selected) {
            TREEWALK_ASSIGN_OR_RETURN(
                Outcome sub, Compute(v, action.call_state, store, depth + 1));
            if (!sub.accepted) {
              return Rejected(RejectReason::kSubcomputationRejected);
            }
            collected.UnionWith(sub.returned);
          }
          TREEWALK_RETURN_IF_ERROR(CheckDiscipline(collected, "look-ahead"));
          TREEWALK_RETURN_IF_ERROR(store.Replace(
              static_cast<std::size_t>(action.register_index),
              std::move(collected)));
          ++stats_.store_updates;
          break;
        }
      }
      state = action.next_state;
      std::size_t tuples = store.TotalTuples();
      if (tuples > stats_.max_store_tuples) {
        // Store growth is charged at its high-water mark across the
        // whole run (monotone; never released).
        TREEWALK_RETURN_IF_ERROR(GovernorCharge(
            options_.governor, MemoryCategory::kStore,
            static_cast<std::int64_t>(tuples - stats_.max_store_tuples) *
                24));
        stats_.max_store_tuples = tuples;
      }
    }
  }

  /// SelectNodes with the per-run cache in front (Definition 3.1's
  /// atp() node selection).  The key is (selector id = rule index,
  /// origin, fingerprint of the store relations the selector mentions);
  /// since selectors are store-free tree formulas the fingerprint is a
  /// constant, and repeated fan-outs from one origin hit the cache.
  Result<std::vector<NodeId>> Select(std::size_t rule_index,
                                     const Formula& selector, NodeId origin,
                                     const Store& store) {
    TREEWALK_FAILPOINT("interpreter/select");
    if (!options_.cache_selectors) {
      ++stats_.selector_cache_misses;
      return EvalSelector(selector_ids_[rule_index], selector, origin);
    }
    std::uint64_t store_fp = 0;
    for (int rel : selector_rels_[rule_index]) {
      store_fp ^= store.At(static_cast<std::size_t>(rel)).Fingerprint() +
                  0x9e3779b97f4a7c15ULL + (store_fp << 6) + (store_fp >> 2);
    }
    SelectorKey key{selector_ids_[rule_index], origin, store_fp};
    auto it = selector_cache_.find(key);
    if (it != selector_cache_.end()) {
      ++stats_.selector_cache_hits;
      return it->second;
    }
    ++stats_.selector_cache_misses;
    TREEWALK_ASSIGN_OR_RETURN(
        std::vector<NodeId> selected,
        EvalSelector(selector_ids_[rule_index], selector, origin));
    TREEWALK_RETURN_IF_ERROR(GovernorCharge(
        options_.governor, MemoryCategory::kSelectorCache,
        48 + static_cast<std::int64_t>(selected.size()) * 8));
    selector_cache_.emplace(key, selected);
    return selected;
  }

  /// One selector evaluation, compiled when possible (docs/EVALUATOR.md).
  /// Each canonical selector is planned once per run (PlannedSelector):
  /// a compiled pick answers every origin by seeded evaluation, and a
  /// reference pick or a compiler decline by the reference SelectNodes,
  /// which also reproduces the reference error behavior.  The
  /// `path="compiled"` timer covers the first evaluation's planning and
  /// preparation too, so it times all of the compiled path's work.
  Result<std::vector<NodeId>> EvalSelector(std::size_t canonical_id,
                                           const Formula& selector,
                                           NodeId origin) {
    if (!options_.compile_selectors) {
      ScopedLatencyUs timer(InterpMetrics::Get().reference_eval_us);
      return SelectNodes(tree_, selector, origin);
    }
    const auto start = std::chrono::steady_clock::now();
    auto it = selectors_.find(canonical_id);
    if (it == selectors_.end()) {
      TREEWALK_ASSIGN_OR_RETURN(PlannedSelector planned, Plan(selector));
      it = selectors_.emplace(canonical_id, std::move(planned)).first;
    }
    PlannedSelector& planned = it->second;
    if (planned.compiled()) ++stats_.compiled_selector_evals;
    Result<std::vector<NodeId>> selected = planned.SelectFrom(origin);
    InterpMetrics& m = InterpMetrics::Get();
    (planned.compiled() ? m.compiled_eval_us : m.reference_eval_us)
        ->Observe(std::chrono::duration<double, std::micro>(
                      std::chrono::steady_clock::now() - start)
                      .count());
    return selected;
  }

  /// Plans a selector met for the first time this run.
  Result<PlannedSelector> Plan(const Formula& selector) {
    if (!tree_stats_.has_value()) {
      TreeStats scratch;
      tree_stats_ = *GetOrComputeTreeStats(tree_, scratch);
    }
    PlannerCalibration calibration;
    if (options_.planner_calibration != nullptr) {
      calibration = *options_.planner_calibration;
    }
    TREEWALK_ASSIGN_OR_RETURN(
        PlannedSelector planned,
        PlannedSelector::Plan(tree_, *tree_stats_, selector, calibration,
                              axis_index_, options_.governor));
    if (planned.strategy() == PlanStrategy::kReference) {
      ++stats_.planner_picks_reference;
    } else {
      ++stats_.planner_picks_interval;
    }
    return planned;
  }

  void FlushMetrics() const {
    InterpMetrics& m = InterpMetrics::Get();
    m.runs->Increment();
    m.steps->Increment(stats_.steps);
    m.subcomputations->Increment(stats_.subcomputations);
    m.atp_calls->Increment(stats_.atp_calls);
    m.cache_hits->Increment(stats_.selector_cache_hits);
    m.cache_misses->Increment(stats_.selector_cache_misses);
    m.compiled_evals->Increment(stats_.compiled_selector_evals);
    m.reference_evals->Increment(stats_.selector_cache_misses -
                                 stats_.compiled_selector_evals);
    m.picks_reference->Increment(stats_.planner_picks_reference);
    m.picks_interval->Increment(stats_.planner_picks_interval);
    m.store_updates->Increment(stats_.store_updates);
  }

  static Result<Outcome> Rejected(RejectReason reason) {
    Outcome out;
    out.accepted = false;
    out.reason = reason;
    return out;
  }

  Status CheckDiscipline(const Relation& r, const char* what) const {
    if (program_.program_class() == ProgramClass::kTwL && r.size() > 1) {
      return FailedPrecondition(
          std::string("tw^l register discipline violated: ") + what +
          " produced " + std::to_string(r.size()) + " values");
    }
    return Status::Ok();
  }

  /// Finds the unique applicable rule, nullptr if none, or a
  /// Nondeterminism error if several guards fire.
  Result<const Rule*> FindRule(NodeId u, const std::string& state,
                               const Store& store) {
    Symbol label = tree_.label(u);
    bool shadowed = exact_keys_.count(
                        state + "\x1f" + tree_.LabelName(label)) > 0;
    const Rule* found = nullptr;
    StoreContext context = MakeContext(u, store);
    for (std::size_t i = 0; i < program_.rules().size(); ++i) {
      const Rule& rule = program_.rules()[i];
      if (rule.state != state) continue;
      bool is_wildcard = rule.label == "*";
      if (is_wildcard) {
        if (shadowed) continue;
      } else if (labels_[i] != label) {
        continue;
      }
      TREEWALK_ASSIGN_OR_RETURN(bool holds,
                                EvalStoreSentence(context, rule.guard));
      if (!holds) continue;
      if (found != nullptr) {
        return Nondeterminism("rules for (" + tree_.LabelName(label) + ", " +
                              state + ") both apply: guards " +
                              found->guard.ToString() + " and " +
                              rule.guard.ToString());
      }
      found = &rule;
    }
    return found;
  }

  StoreContext MakeContext(NodeId u, const Store& store) const {
    StoreContext context;
    context.store = &store;
    context.values = &tree_.values();
    for (AttrId a = 0; a < static_cast<AttrId>(tree_.num_attributes()); ++a) {
      context.current_attrs[tree_.attributes().NameOf(a)] = tree_.attr(a, u);
    }
    return context;
  }

  NodeId ApplyMove(NodeId u, Move move) const {
    switch (move) {
      case Move::kStay:
        return u;
      case Move::kLeft:
        return tree_.PrevSibling(u);
      case Move::kRight:
        return tree_.NextSibling(u);
      case Move::kUp:
        return tree_.Parent(u);
      case Move::kDown:
        return tree_.FirstChild(u);
    }
    return kNoNode;
  }

  void Trace(NodeId u, const std::string& state, const Rule& rule) {
    if (!options_.record_trace ||
        trace_.size() >= options_.max_trace_entries) {
      return;
    }
    std::string entry = "[" + std::to_string(u) + ":" +
                        tree_.LabelName(tree_.label(u)) + ", " + state + "]";
    switch (rule.action.kind) {
      case Action::Kind::kMove:
        entry += " move " + std::string(MoveName(rule.action.move));
        break;
      case Action::Kind::kUpdate:
        entry += " update X" + std::to_string(rule.action.register_index + 1);
        break;
      case Action::Kind::kLookAhead:
        entry += " atp(" + rule.action.selector.ToString() + ", " +
                 rule.action.call_state + ")";
        break;
    }
    entry += " -> " + rule.action.next_state;
    trace_.push_back(std::move(entry));
  }

  using SelectorKey = std::tuple<std::size_t, NodeId, std::uint64_t>;

  const Program& program_;
  const Tree& tree_;
  const RunOptions& options_;
  std::vector<Symbol> labels_;
  std::set<std::string> exact_keys_;
  std::vector<std::size_t> selector_ids_;
  std::vector<std::vector<int>> selector_rels_;
  std::map<SelectorKey, std::vector<NodeId>> selector_cache_;
  /// Built by the run's first compiled pick (PlannedSelector::Plan).
  std::optional<AxisIndex> axis_index_;
  /// Lazy tree statistics for the planner (snapshot-preloaded or one
  /// O(n) scan, computed at the first selector planned this run).
  std::optional<TreeStats> tree_stats_;
  /// Per canonical selector; absent = not yet planned.
  std::map<std::size_t, PlannedSelector> selectors_;
  RunStats stats_;
  std::vector<std::string> trace_;
};

}  // namespace

Interpreter::Interpreter(const Program& program, RunOptions options)
    : program_(program), options_(options) {}

Result<RunResult> Interpreter::Run(const Tree& input) const {
  if (input.empty()) return InvalidArgument("empty input tree");
  DelimitedTree delimited = Delimit(input);
  return RunDelimited(delimited.tree);
}

Result<RunResult> Interpreter::RunDelimited(const Tree& delimited) const {
  if (delimited.empty()) return InvalidArgument("empty input tree");
  Runner runner(program_, delimited, options_);
  return runner.Run();
}

Result<bool> Accepts(const Program& program, const Tree& input,
                     RunOptions options) {
  Interpreter interpreter(program, options);
  TREEWALK_ASSIGN_OR_RETURN(RunResult result, interpreter.Run(input));
  return result.accepted;
}

}  // namespace treewalk
