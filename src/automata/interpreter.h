#ifndef TREEWALK_AUTOMATA_INTERPRETER_H_
#define TREEWALK_AUTOMATA_INTERPRETER_H_

#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

#include "src/automata/program.h"
#include "src/common/governor.h"
#include "src/common/result.h"
#include "src/tree/delimited.h"
#include "src/tree/tree.h"

namespace treewalk {

class SelectorDiskCache;     // src/logic/selector_cache.h

/// Resource limits for a run.  Exceeding any limit aborts the run with
/// kResourceExhausted (an *error*, distinct from semantic rejection).
struct RunOptions {
  /// Total transitions across the main computation and all
  /// subcomputations.
  std::int64_t max_steps = 1'000'000;
  /// Maximum atp() nesting depth.
  int max_depth = 64;
  /// Record a human-readable trace of the first `max_trace_entries`
  /// transitions.
  bool record_trace = false;
  std::size_t max_trace_entries = 1000;
  /// Ablation: exact cycle detection memoizes every configuration
  /// (node, state, store) of a computation — one bit per configuration
  /// in 16-byte hash slots of 64, each distinct store content interned
  /// once — which costs a walk ~1.2× its step time (BM_WalkOnly/100000
  /// with detection on and off, E33).  With detection off, a looping
  /// computation runs into max_steps (kResourceExhausted) instead of
  /// rejecting with kCycle; terminating runs are unaffected.
  bool detect_cycles = true;
  /// Compiled selector evaluation: each distinct atp() selector's op
  /// DAG is compiled once per run over a per-run axis index
  /// (src/logic/compile.h) and evaluated seeded at each origin asked
  /// (src/logic/planned_selector.h); only a selector the partial
  /// compiler declines (three-plus-variable subformulas) is answered by
  /// the reference evaluator.  Semantically invisible.  Product code
  /// never turns it off; it is the tests' switch to the reference
  /// oracle.
  bool compile_selectors = true;
  /// Persistent compiled-selector cache (src/logic/selector_cache.h).
  /// Not read by runs: seeded evaluation materializes no relation, so
  /// there is nothing to load or persist.  Kept for
  /// perfbench/pbtool.cc, which sets it.
  const SelectorDiskCache* selector_disk_cache = nullptr;
  /// Cooperative cancellation: when non-null and set, the run aborts
  /// with kCancelled at the next transition boundary.  The pointee must
  /// outlive the run; src/engine points every job of a batch at one
  /// flag.
  const std::atomic<bool>* cancel = nullptr;
  /// Per-run resource governor (src/common/governor.h).  When non-null,
  /// the deadline is polled at every transition boundary (beside the
  /// cancel flag; a trip aborts with kDeadlineExceeded) and the run's
  /// growing structures — cycle memo, trace, store tuples, axis index,
  /// compiled selectors — charge its memory budget
  /// (a trip aborts with kResourceExhausted and a category breakdown).
  /// Not thread-safe: one governor per run; must outlive the run.
  ResourceGovernor* governor = nullptr;
};

/// Why a run rejected (Section 3 semantics; cycles reject per the
/// protocol convention of Lemma 4.5).
enum class RejectReason {
  kNone,                     ///< run accepted
  kStuck,                    ///< no rule applies
  kCycle,                    ///< a configuration repeated
  kSubcomputationRejected,   ///< an atp() subcomputation rejected
  kMoveOffTree,              ///< a move left the (delimited) tree
};

const char* RejectReasonName(RejectReason r);

struct RunStats {
  std::int64_t steps = 0;
  std::int64_t subcomputations = 0;
  /// atp() rule firings (each may spawn several subcomputations).
  std::int64_t atp_calls = 0;
  /// Always 0: no run remembers a selector's answer.  The two fields
  /// keep their names for perfbench/pbtool.cc, which reads them.
  std::int64_t selector_cache_hits = 0;
  /// Selector evaluations: one per node selection an atp() rule makes.
  std::int64_t selector_cache_misses = 0;
  /// Selector evaluations answered by the compiled set-at-a-time
  /// evaluator (a subset of selector_cache_misses); the rest ran the
  /// reference evaluator.
  std::int64_t compiled_selector_evals = 0;
  /// One pick per distinct selector prepared this run: interval when the
  /// compiler accepted it (answered seeded), reference when it declined.
  /// The three fields keep their names for perfbench/pbtool.cc, which
  /// reports them as logic.planner_picks.*.
  std::int64_t planner_picks_reference = 0;
  /// Always 0.
  std::int64_t planner_picks_dense = 0;
  std::int64_t planner_picks_interval = 0;
  /// Register writes (update rules and look-ahead collections).
  std::int64_t store_updates = 0;
  std::size_t max_store_tuples = 0;
  int max_depth_reached = 0;

  friend bool operator==(const RunStats&, const RunStats&) = default;
};

struct RunResult {
  bool accepted = false;
  RejectReason reason = RejectReason::kNone;
  RunStats stats;
  std::vector<std::string> trace;
};

/// Deterministic interpreter for tree-walking programs: the reference
/// semantics of Definition 3.1.  Programs walk delim(t); Run() wraps the
/// input itself, RunDelimited() accepts a pre-delimited tree (so repeated
/// runs over one input can share the transform).
///
/// Determinism is enforced at runtime: if two rules apply to one
/// configuration the run aborts with kNondeterminism.  Class tw^l's
/// register discipline (at most one value per register, at most one
/// selected node per look-ahead) is likewise enforced, aborting with
/// kFailedPrecondition on violation.
class Interpreter {
 public:
  explicit Interpreter(const Program& program, RunOptions options = {});

  /// Runs on (the delimitation of) `input`.
  Result<RunResult> Run(const Tree& input) const;

  /// Runs directly on an already-delimited tree.
  Result<RunResult> RunDelimited(const Tree& delimited) const;

 private:
  const Program& program_;
  RunOptions options_;
};

/// Convenience: build-run-report in one call; true iff accepted.
Result<bool> Accepts(const Program& program, const Tree& input,
                     RunOptions options = {});

}  // namespace treewalk

#endif  // TREEWALK_AUTOMATA_INTERPRETER_H_
