#include "src/automata/interpreter.h"

#include <algorithm>
#include <bit>
#include <chrono>
#include <cstdint>
#include <map>
#include <optional>
#include <span>
#include <string_view>
#include <unordered_map>
#include <utility>

#include "src/common/failpoint.h"
#include "src/common/governor.h"
#include "src/common/metrics.h"
#include "src/logic/planned_selector.h"
#include "src/logic/tree_eval.h"
#include "src/relstore/store_eval.h"
#include "src/tree/axis_index.h"

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
          "Distinct selectors prepared per run, by the evaluator that "
          "answers them: compiled-interval if the compiler accepted, "
          "reference if it declined",
          {{"strategy", "reference"}});
      m->picks_interval = r.FindOrCreateCounter(
          "treewalk_planner_picks_total",
          "Distinct selectors prepared per run, by the evaluator that "
          "answers them: compiled-interval if the compiler accepted, "
          "reference if it declined",
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

/// The step loop's view of a program over one tree, built once per run:
/// states interned to dense ids, and for every (state, node label) the
/// rules that can fire there, in program order.  Wildcard shadowing is
/// resolved here, not per step: an exact-label rule for (q, sigma)
/// shadows every `*` rule of q at sigma-labeled nodes.
class RuleTable {
 public:
  RuleTable(const Program& program, const Tree& tree) {
    const std::vector<Rule>& rules = program.rules();
    std::unordered_map<std::string_view, int> ids;
    const auto id_of = [&](const std::string& name) {
      auto [it, fresh] = ids.emplace(name, static_cast<int>(names_.size()));
      if (fresh) names_.push_back(&name);
      return it->second;
    };
    initial_state_ = id_of(program.initial_state());
    final_state_ = id_of(program.final_state());
    std::vector<int> state_of(rules.size());
    next_state_.resize(rules.size());
    call_state_.resize(rules.size(), -1);
    trivial_guard_.resize(rules.size());
    for (std::size_t i = 0; i < rules.size(); ++i) {
      const Rule& rule = rules[i];
      state_of[i] = id_of(rule.state);
      next_state_[i] = id_of(rule.action.next_state);
      if (rule.action.kind == Action::Kind::kLookAhead) {
        call_state_[i] = id_of(rule.action.call_state);
      }
      trivial_guard_[i] = rule.guard.valid() &&
                          rule.guard.node().kind == FormulaKind::kTrue;
    }

    // Column 0 holds labels no exact rule names; each label some exact
    // rule names (and the tree uses) gets its own column.  Exact rules
    // for labels the tree never uses can neither fire nor shadow.
    label_column_.assign(tree.labels().size(), 0);
    num_columns_ = 1;
    std::vector<int> column_of(rules.size(), -1);
    for (std::size_t i = 0; i < rules.size(); ++i) {
      if (rules[i].label == "*") continue;
      const Symbol s = tree.FindLabel(rules[i].label);
      if (s < 0) continue;
      int& column = label_column_[static_cast<std::size_t>(s)];
      if (column == 0) column = static_cast<int>(num_columns_++);
      column_of[i] = column;
    }
    const std::size_t num_states = names_.size();
    std::vector<std::vector<std::int32_t>> exact(num_states * num_columns_);
    std::vector<std::vector<std::int32_t>> wildcard(num_states);
    for (std::size_t i = 0; i < rules.size(); ++i) {
      const auto state = static_cast<std::size_t>(state_of[i]);
      if (rules[i].label == "*") {
        wildcard[state].push_back(static_cast<std::int32_t>(i));
      } else if (column_of[i] > 0) {
        exact[state * num_columns_ + static_cast<std::size_t>(column_of[i])]
            .push_back(static_cast<std::int32_t>(i));
      }
    }
    cell_begin_.reserve(exact.size() + 1);
    cell_begin_.push_back(0);
    for (std::size_t state = 0; state < num_states; ++state) {
      for (std::size_t column = 0; column < num_columns_; ++column) {
        const std::vector<std::int32_t>& here =
            exact[state * num_columns_ + column];
        const std::vector<std::int32_t>& cell =
            here.empty() ? wildcard[state] : here;
        cell_rules_.insert(cell_rules_.end(), cell.begin(), cell.end());
        cell_begin_.push_back(static_cast<std::uint32_t>(cell_rules_.size()));
      }
    }
  }

  /// The rules that may fire in `state` at a node labeled `label`.
  std::span<const std::int32_t> Candidates(int state, Symbol label) const {
    const int column = label_column_[static_cast<std::size_t>(label)];
    const std::size_t cell = static_cast<std::size_t>(state) * num_columns_ +
                             static_cast<std::size_t>(column);
    return {cell_rules_.data() + cell_begin_[cell],
            cell_rules_.data() + cell_begin_[cell + 1]};
  }

  std::size_t num_states() const { return names_.size(); }
  const std::string& name(int state) const {
    return *names_[static_cast<std::size_t>(state)];
  }
  int initial_state() const { return initial_state_; }
  int final_state() const { return final_state_; }
  int next_state(std::size_t rule) const { return next_state_[rule]; }
  int call_state(std::size_t rule) const { return call_state_[rule]; }
  /// A `[true]` guard holds without consulting the store.
  bool trivial_guard(std::size_t rule) const { return trivial_guard_[rule]; }

 private:
  std::vector<const std::string*> names_;  // state id -> program's name
  int initial_state_ = 0;
  int final_state_ = 0;
  std::vector<int> next_state_;     // per rule
  std::vector<int> call_state_;     // per rule; -1 unless a look-ahead
  std::vector<bool> trivial_guard_; // per rule
  std::vector<int> label_column_;   // tree Symbol -> column
  std::size_t num_columns_ = 1;
  std::vector<std::uint32_t> cell_begin_;  // (state, column) -> offset
  std::vector<std::int32_t> cell_rules_;   // rule indices, program order
};

/// Exact cycle memo of one (sub)computation: the configurations
/// (node, state, store) it has visited, so the first repeat rejects
/// (Lemma 4.5's convention).  Distinct store contents are interned to
/// version ids in order of first appearance and compared by
/// Store::operator== (a fingerprint only picks the bucket), so two
/// configurations share a key iff they are equal.  Version 0 is the
/// store the computation started with; it is copied only before the
/// store first changes, and later versions are interned at the next
/// visit after a change, so a computation that never writes its store
/// never copies or hashes it.
///
/// A configuration packs into one 64-bit key — node lowest, then state
/// id, then version id — each field as wide as the run needs.  Version
/// ids stay below their field's all-ones value; a computation that
/// would need more versions fails instead of truncating a key.
///
/// Keys are recorded 64 to a slot: a slot holds the word `key >> 6` and
/// a mask whose bit `key & 63` is set once that key has been visited.
/// A walk meets consecutive node ids in one state and one store version,
/// so it fills one 16-byte slot per 64 configurations; in the worst
/// case, one configuration per slot, a key costs a whole slot.  Slots
/// live in an open-addressing table with linear probing.  A word has its
/// top six bits clear, so the all-ones word marks an empty slot.
///
/// Memory is charged to kCycleMemo before it is allocated — 16 bytes per
/// slot at first use and before each doubling, and 64 + 24·tuples per
/// new store version — and released when the memo dies.
class CycleMemo {
 public:
  CycleMemo(std::size_t num_nodes, std::size_t num_states,
            ResourceGovernor* governor)
      : node_bits_(BitsFor(num_nodes)),
        state_bits_(BitsFor(num_states)),
        charge_(governor, MemoryCategory::kCycleMemo) {}

  /// Records configuration (u, state, store); false if it was visited
  /// before.
  Result<bool> Visit(NodeId u, int state, const Store& store) {
    if (store_changed_) {
      TREEWALK_ASSIGN_OR_RETURN(version_, Intern(store));
      store_changed_ = false;
    }
    const std::uint64_t key = static_cast<std::uint64_t>(u) |
                              static_cast<std::uint64_t>(state) << node_bits_ |
                              version_ << (node_bits_ + state_bits_);
    const std::uint64_t word = key >> 6;
    const std::uint64_t bit = std::uint64_t{1} << (key & 63);
    if (slots_.empty()) TREEWALK_RETURN_IF_ERROR(Grow());
    Slot* slot = Probe(word);
    if (slot->word == kEmpty) {
      if ((size_ + 1) * 4 > slots_.size() * 3) {
        TREEWALK_RETURN_IF_ERROR(Grow());
        slot = Probe(word);
      }
      slot->word = word;
      ++size_;
    } else if ((slot->bits & bit) != 0) {
      return false;
    }
    slot->bits |= bit;
    return true;
  }

  /// Call before each write to the store: keeps the starting store as
  /// version 0 if it is still about to be overwritten.
  Status BeforeStoreWrite(const Store& store) {
    store_changed_ = true;
    if (!versions_.empty()) return Status::Ok();
    return Intern(store).status();
  }

 private:
  struct Slot {
    std::uint64_t word;
    std::uint64_t bits;
  };

  static constexpr std::uint64_t kEmpty = ~std::uint64_t{0};
  static constexpr std::size_t kInitialSlots = 16;

  /// Bits for ids 0..count-1 (at least one); node and state counts are
  /// int-sized, so at most 31 each.
  static int BitsFor(std::size_t count) {
    return std::max(1, static_cast<int>(std::bit_width(count - 1)));
  }

  /// Linear probing from the word's Fibonacci hash: the slot holding
  /// `word`, or the empty slot where it would go.
  Slot* Probe(std::uint64_t word) {
    const std::size_t mask = slots_.size() - 1;
    auto i = static_cast<std::size_t>((word * 0x9e3779b97f4a7c15ULL) >> shift_);
    while (slots_[i].word != word && slots_[i].word != kEmpty) {
      i = (i + 1) & mask;
    }
    return &slots_[i];
  }

  Status Grow() {
    const std::size_t capacity =
        slots_.empty() ? kInitialSlots : 2 * slots_.size();
    TREEWALK_RETURN_IF_ERROR(charge_.Add(static_cast<std::int64_t>(
        (capacity - slots_.size()) * sizeof(Slot))));
    std::vector<Slot> old =
        std::exchange(slots_, std::vector<Slot>(capacity, Slot{kEmpty, 0}));
    shift_ = 64 - std::countr_zero(capacity);
    for (const Slot& slot : old) {
      if (slot.word != kEmpty) *Probe(slot.word) = slot;
    }
    return Status::Ok();
  }

  Result<std::uint64_t> Intern(const Store& store) {
    const std::uint64_t fingerprint = store.Fingerprint();
    auto [first, last] = by_fingerprint_.equal_range(fingerprint);
    for (auto it = first; it != last; ++it) {
      if (versions_[it->second] == store) return it->second;
    }
    const std::uint64_t max_versions =
        (std::uint64_t{1} << (64 - node_bits_ - state_bits_)) - 1;
    if (versions_.size() >= max_versions) {
      return ResourceExhausted("cycle-memo key cannot hold more than " +
                               std::to_string(max_versions) +
                               " store versions");
    }
    TREEWALK_RETURN_IF_ERROR(charge_.Add(
        64 + static_cast<std::int64_t>(store.TotalTuples()) * 24));
    versions_.push_back(store);
    by_fingerprint_.emplace(fingerprint, versions_.size() - 1);
    return versions_.size() - 1;
  }

  const int node_bits_;
  const int state_bits_;
  ScopedMemoryCharge charge_;
  std::vector<Slot> slots_;
  std::size_t size_ = 0;  // occupied slots
  int shift_ = 64;
  std::vector<Store> versions_;
  std::unordered_multimap<std::uint64_t, std::uint64_t> by_fingerprint_;
  std::uint64_t version_ = 0;
  bool store_changed_ = false;
};

class Runner {
 public:
  Runner(const Program& program, const Tree& tree, const RunOptions& options)
      : program_(program),
        tree_(tree),
        options_(options),
        table_(program, tree) {
    // Selector identities: rules whose selectors print identically
    // evaluate identically, so they share one prepared selector, keyed
    // by the first such rule's index.
    selector_ids_.resize(program.rules().size(), 0);
    std::map<std::string, std::size_t> first_use;
    for (std::size_t i = 0; i < program.rules().size(); ++i) {
      const Rule& rule = program.rules()[i];
      if (rule.action.kind != Action::Kind::kLookAhead) continue;
      selector_ids_[i] =
          first_use.emplace(rule.action.selector.ToString(), i).first->second;
    }
  }

  Result<RunResult> Run() {
    Result<Outcome> outcome =
        Compute(tree_.root(), table_.initial_state(),
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
  /// Runs one (sub)computation from (start, start_state) on a store that
  /// starts as `borrowed`.  Borrowing is safe: a caller is suspended
  /// while its subcomputation runs and writes its own store only after
  /// the subcomputation returns, and a computation copies `borrowed`
  /// before its first write, so nobody writes a store that is lent out.
  Result<Outcome> Compute(NodeId start, int start_state, const Store& borrowed,
                          int depth) {
    if (depth > options_.max_depth) {
      return ResourceExhausted("atp nesting exceeded max_depth=" +
                               std::to_string(options_.max_depth));
    }
    stats_.max_depth_reached = std::max(stats_.max_depth_reached, depth);

    NodeId u = start;
    int state = start_state;
    // The current store: `borrowed` until the first write, then `owned`,
    // copied from it right before that write.
    std::optional<Store> owned;
    const Store* store = &borrowed;
    const auto writable = [&]() -> Store& {
      if (!owned.has_value()) store = &owned.emplace(borrowed);
      return *owned;
    };
    // The memo lives for this (sub)computation; its budget charge is
    // released with it at scope exit.
    CycleMemo memo(tree_.size(), table_.num_states(), options_.governor);

    while (true) {
      if (options_.cancel != nullptr &&
          options_.cancel->load(std::memory_order_relaxed)) {
        return Cancelled("run cancelled after " +
                         std::to_string(stats_.steps) + " steps");
      }
      TREEWALK_RETURN_IF_ERROR(GovernorCheckDeadline(options_.governor));
      TREEWALK_FAILPOINT("interpreter/step");
      if (state == table_.final_state()) {
        Outcome out;
        out.accepted = true;
        if (store->num_relations() > 0) out.returned = store->At(0);
        return out;
      }
      if (options_.detect_cycles) {
        TREEWALK_ASSIGN_OR_RETURN(bool fresh, memo.Visit(u, state, *store));
        if (!fresh) return Rejected(RejectReason::kCycle);
      }

      TREEWALK_ASSIGN_OR_RETURN(int rule_index, FindRule(u, state, *store));
      if (rule_index < 0) return Rejected(RejectReason::kStuck);
      const Rule& rule = program_.rules()[static_cast<std::size_t>(rule_index)];

      if (++stats_.steps > options_.max_steps) {
        return ResourceExhausted("exceeded max_steps=" +
                                 std::to_string(options_.max_steps));
      }
      if (options_.record_trace &&
          trace_.size() < options_.max_trace_entries) {
        TREEWALK_RETURN_IF_ERROR(
            GovernorCharge(options_.governor, MemoryCategory::kTrace, 128));
        Trace(u, state, rule);
      }

      const Action& action = rule.action;
      switch (action.kind) {
        case Action::Kind::kMove: {
          NodeId v = ApplyMove(u, action.move);
          if (v == kNoNode) return Rejected(RejectReason::kMoveOffTree);
          u = v;
          break;
        }
        case Action::Kind::kUpdate: {
          StoreContext context = MakeContext(u, *store);
          TREEWALK_ASSIGN_OR_RETURN(
              Relation result,
              EvalStoreFormula(context, action.update, action.update_vars));
          TREEWALK_RETURN_IF_ERROR(CheckDiscipline(result, "update"));
          if (options_.detect_cycles) {
            TREEWALK_RETURN_IF_ERROR(memo.BeforeStoreWrite(*store));
          }
          TREEWALK_RETURN_IF_ERROR(writable().Replace(
              static_cast<std::size_t>(action.register_index),
              std::move(result)));
          ++stats_.store_updates;
          break;
        }
        case Action::Kind::kLookAhead: {
          ++stats_.subcomputations;
          ++stats_.atp_calls;
          const auto index = static_cast<std::size_t>(rule_index);
          TREEWALK_ASSIGN_OR_RETURN(
              std::vector<NodeId> selected,
              Select(index, action.selector, u));
          if (program_.program_class() == ProgramClass::kTwL &&
              selected.size() > 1) {
            return FailedPrecondition(
                "tw^l look-ahead selected " +
                std::to_string(selected.size()) +
                " nodes; Definition 5.1 allows at most one");
          }
          Relation collected(store->At(0).arity());
          for (NodeId v : selected) {
            TREEWALK_ASSIGN_OR_RETURN(
                Outcome sub,
                Compute(v, table_.call_state(index), *store, depth + 1));
            if (!sub.accepted) {
              return Rejected(RejectReason::kSubcomputationRejected);
            }
            collected.UnionWith(sub.returned);
          }
          TREEWALK_RETURN_IF_ERROR(CheckDiscipline(collected, "look-ahead"));
          if (options_.detect_cycles) {
            TREEWALK_RETURN_IF_ERROR(memo.BeforeStoreWrite(*store));
          }
          TREEWALK_RETURN_IF_ERROR(writable().Replace(
              static_cast<std::size_t>(action.register_index),
              std::move(collected)));
          ++stats_.store_updates;
          break;
        }
      }
      state = table_.next_state(static_cast<std::size_t>(rule_index));
      std::size_t tuples = store->TotalTuples();
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

  /// Definition 3.1's atp() node selection from `origin`, compiled when
  /// possible (docs/EVALUATOR.md).  Each canonical selector is prepared
  /// once per run (PlannedSelector): it answers every origin by seeded
  /// evaluation, or, if the compiler declined it, by the reference
  /// SelectNodes, which also reproduces the reference error behavior.
  /// Every call evaluates; nothing is remembered per origin.  The
  /// `path="compiled"` timer covers the first evaluation's preparation
  /// too, so it times all of the compiled path's work.
  Result<std::vector<NodeId>> Select(std::size_t rule_index,
                                     const Formula& selector, NodeId origin) {
    TREEWALK_FAILPOINT("interpreter/select");
    ++stats_.selector_cache_misses;
    if (!options_.compile_selectors) {
      ScopedLatencyUs timer(InterpMetrics::Get().reference_eval_us);
      return SelectNodes(tree_, selector, origin);
    }
    const auto start = std::chrono::steady_clock::now();
    const std::size_t canonical_id = selector_ids_[rule_index];
    auto it = selectors_.find(canonical_id);
    if (it == selectors_.end()) {
      TREEWALK_ASSIGN_OR_RETURN(
          PlannedSelector planned,
          PlannedSelector::Prepare(tree_, selector, axis_index_,
                                   options_.governor));
      ++(planned.compiled() ? stats_.planner_picks_interval
                            : stats_.planner_picks_reference);
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

  void FlushMetrics() const {
    InterpMetrics& m = InterpMetrics::Get();
    m.runs->Increment();
    m.steps->Increment(stats_.steps);
    m.subcomputations->Increment(stats_.subcomputations);
    m.atp_calls->Increment(stats_.atp_calls);
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

  /// The index of the unique applicable rule, -1 if none, or a
  /// Nondeterminism error if several guards hold.  Every candidate's
  /// guard is checked; the store context is built only for a guard
  /// other than `[true]`.
  Result<int> FindRule(NodeId u, int state, const Store& store) {
    const Symbol label = tree_.label(u);
    int found = -1;
    std::optional<StoreContext> context;
    for (std::int32_t i : table_.Candidates(state, label)) {
      const Rule& rule = program_.rules()[static_cast<std::size_t>(i)];
      if (!table_.trivial_guard(static_cast<std::size_t>(i))) {
        if (!context.has_value()) context = MakeContext(u, store);
        TREEWALK_ASSIGN_OR_RETURN(bool holds,
                                  EvalStoreSentence(*context, rule.guard));
        if (!holds) continue;
      }
      if (found >= 0) {
        return Nondeterminism(
            "rules for (" + tree_.LabelName(label) + ", " + table_.name(state) +
            ") both apply: guards " +
            program_.rules()[static_cast<std::size_t>(found)].guard.ToString() +
            " and " + rule.guard.ToString());
      }
      found = i;
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

  void Trace(NodeId u, int state, const Rule& rule) {
    std::string entry = "[" + std::to_string(u) + ":" +
                        tree_.LabelName(tree_.label(u)) + ", " +
                        table_.name(state) + "]";
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

  const Program& program_;
  const Tree& tree_;
  const RunOptions& options_;
  const RuleTable table_;
  std::vector<std::size_t> selector_ids_;
  /// Built by the run's first selector (PlannedSelector::Prepare).
  std::optional<AxisIndex> axis_index_;
  /// Per canonical selector; absent = not yet prepared.
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
