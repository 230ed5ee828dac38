#ifndef TREEWALK_LOGIC_BITSET_EVAL_H_
#define TREEWALK_LOGIC_BITSET_EVAL_H_

#include <cstdint>
#include <map>
#include <memory>
#include <vector>

#include "src/tree/axis_index.h"
#include "src/tree/interval_matrix.h"
#include "src/tree/tree.h"

namespace treewalk {

/// Set-at-a-time evaluation machine behind src/logic/compile.h: a
/// formula compiles into a DAG of operations over satisfier sets.  Each
/// op produces one of three value shapes —
///
///   Bool            a closed subformula's truth value,
///   NodeSet         {u : t |= phi(u)} for a one-free-variable
///                   subformula, one bit per node,
///   IntervalMatrix  {(u, v) : t |= phi(u, v)} for two free variables
///                   (rows = the variable with the smaller compile slot),
///                   each row a list of pre-order spans
///                   (src/tree/interval_matrix.h),
///
/// — so set connectives are O(n/64) word-parallel passes, and the
/// matrix loads, range algebra and guarded joins stay O(n·spans)
/// instead of O(n^2): the representation that reaches million-node
/// trees.  Shapes and variable bookkeeping live entirely in the
/// compiler; the ops here are shape-correct by construction.
enum class OpKind : std::uint8_t {
  kConstBool,   ///< literal truth value
  kLoadSet,     ///< precomputed NodeSet (axis-index unary predicate)
  kLoadMat,     ///< precomputed IntervalMatrix (axis relation), or its
                ///< transpose when Op::transposed is set
  kNotBool,     ///< !a
  kAndBool,     ///< a && b
  kOrBool,      ///< a || b
  kNotSet,      ///< complement over Dom(t)
  kAndSet,      ///< intersection
  kOrSet,       ///< union
  kNotMat,      ///< complement over Dom(t)^2
  kAndMat,      ///< intersection
  kOrMat,       ///< union
  kBoolToSet,   ///< Bool -> full / empty NodeSet
  kSetToMatRow, ///< Set s -> Mat M with M[u][v] = s[u]
  kSetToMatCol, ///< Set s -> Mat M with M[u][v] = s[v]
  kAnyRow,      ///< Mat -> Set: {u : exists v M[u][v]} (exists on cols)
  kAllRow,      ///< Mat -> Set: {u : forall v M[u][v]} (forall on cols)
  kAnySet,      ///< Set -> Bool: nonempty
  kAllSet,      ///< Set -> Bool: full
  kCompose,     ///< Mats P, Q (opt. Set guard C) -> Mat R:
                ///< R[u][v] = exists w P[u][w] & Q[v][w] & (c < 0 || C[w])
};

/// The tau axis relation a kLoadMat stands for, or kNone for a derived
/// matrix held in Op::imat.
enum class Axis : std::uint8_t {
  kNone,
  kEdge,        ///< E(u, v): v is a child of u
  kDescendant,  ///< desc(u, v): v is a strict descendant of u
  kSibling,     ///< sib(u, v): same parent, u before v
  kSucc,        ///< succ(u, v): v is the right sibling of u
  kIdentity,    ///< u = v
};

struct Op {
  OpKind kind = OpKind::kConstBool;
  int a = -1;  ///< first operand op index
  int b = -1;  ///< second operand op index
  /// kCompose: op index of an optional Set-shaped guard on the joined
  /// variable w, or -1 for an unguarded join.  Folding the quantified
  /// variable's unary constraints here (instead of broadcasting them to
  /// a matrix and intersecting) is what keeps interval joins narrow.
  int c = -1;
  bool literal = false;  ///< kConstBool
  /// kLoadMat of an axis relation.  Materialization resolves it to the
  /// AxisIndex's interval matrix in `imat`; seeded evaluation reads its
  /// rows by tree navigation and never builds the matrix.
  Axis axis = Axis::kNone;
  /// kLoadMat: the op's value is the relation's transpose.  EvaluateOps
  /// builds it on first use; seeded evaluation reads the relation's
  /// rows in the other orientation.
  bool transposed = false;
  std::shared_ptr<const NodeSet> set;          ///< kLoadSet
  std::shared_ptr<const IntervalMatrix> imat;  ///< kLoadMat
};

/// One evaluated op result; exactly one field is active per the op's
/// shape.  Loads alias their precomputed payload, so evaluating a
/// program allocates only for derived ops.
struct OpValue {
  bool b = false;
  std::shared_ptr<const NodeSet> set;
  std::shared_ptr<const IntervalMatrix> imat;
};

/// Evaluates `ops` (children always precede parents) over a domain of
/// `n` nodes and returns one value per op.  O(total op cost); cannot
/// fail on well-formed programs (the compiler guarantees shape
/// correctness, enforced here by assertions).
std::vector<OpValue> EvaluateOps(const std::vector<Op>& ops, std::size_t n);

/// Governed variant: each derived-op allocation is charged against the
/// governor's memory budget under MemoryCategory::kCompiledOps before
/// allocating, and the deadline is polled between ops.  The transient
/// evaluation charges are released on return — the caller deep-copies
/// what it keeps and accounts for that copy itself — so what this
/// bounds is the peak footprint of one evaluation.  With a null
/// governor this is exactly EvaluateOps.
Result<std::vector<OpValue>> EvaluateOpsGoverned(const std::vector<Op>& ops,
                                                 std::size_t n,
                                                 ResourceGovernor* governor);

/// A binary FO selector phi(x, y) compiled and materialized against one
/// tree: the full relation {(u, v) : t |= phi(u, v)} is computed once
/// (set-at-a-time), after which SelectFrom is a row read — every origin
/// shares the one materialization, unlike the node-at-a-time reference
/// SelectNodes which restarts per origin.  Build with CompileSelector()
/// (src/logic/compile.h).
class CompiledSelector {
 public:
  /// All v with t |= phi(origin, v), in document order.  Equivalent to
  /// SelectNodes(tree, phi, origin); O(row spans + |result|).  `origin` must
  /// be a valid node of the tree compiled against.
  std::vector<NodeId> SelectFrom(NodeId origin) const;

  /// Number of nodes of the tree this selector was compiled against.
  std::size_t tree_size() const { return n_; }

  /// Approximate heap bytes the materialized payload retains (0 for a
  /// constant, one bitset for a set, the descriptor+pool footprint for
  /// a matrix); what a caller keeping the selector alive charges its
  /// memory budget.
  std::int64_t RetainedBytes() const;

 private:
  friend class Compiler;
  // src/logic/selector_cache.cc: persistent-cache (de)serialization of
  // the materialized payload.
  friend class SelectorCacheCodec;

  /// Which shape the materialized result took: a selector that ignores
  /// one of its variables materializes as a set or a constant.
  enum class Shape : std::uint8_t { kBool, kSetX, kSetY, kMat };

  std::size_t n_ = 0;
  Shape shape_ = Shape::kBool;
  bool literal_ = false;
  std::shared_ptr<const NodeSet> set_;
  std::shared_ptr<const IntervalMatrix> imat_;  // rows = x, cols = y
};

/// A binary FO selector phi(x, y) compiled against one tree but not
/// materialized: SelectFrom(origin) evaluates the op DAG *seeded* at
/// that origin (docs/EVALUATOR.md, "Seeded evaluation").  The root
/// demands the origin's row and every matrix op pushes the demand down
/// — through kCompose as a semijoin onto the joined variable — so only
/// rows the origin can reach are computed, as span lists with no n-row
/// descriptor array.  Axis atoms are read by tree navigation, so no axis
/// relation is materialized.  Unary sets stay whole NodeSets.
///
/// Answers equal CompiledSelector::SelectFrom's for the same formula.
/// Build with PrepareSelector() (src/logic/compile.h); the AxisIndex it
/// was prepared against, and its tree, must outlive it.
/// Origin-independent results — sets demanded whole, their span images,
/// closed subformulas, transposes of derived loads, the ancestor-chain
/// array that makes an ancestor row cost O(1 + its spans) — are computed on
/// first use, kept for later origins and charged to the index's
/// governor (kCompiledOps) until destruction; everything else is
/// charged per origin and released.  Not thread-safe: one per run.
class SeededSelector {
 public:
  SeededSelector(SeededSelector&&) noexcept;
  SeededSelector& operator=(SeededSelector&&) noexcept;
  ~SeededSelector();

  /// All v with t |= phi(origin, v), in document order.  Fails only on a
  /// governor budget or deadline trip.  `origin` must be a valid node.
  Result<std::vector<NodeId>> SelectFrom(NodeId origin);

 private:
  friend class Compiler;
  friend class SeededEvaluation;

  /// Which shape the selector took (CompiledSelector::Shape's twin).
  enum class Shape : std::uint8_t { kBool, kSetX, kSetY, kMat };

  SeededSelector();
  /// A derived load's matrix in orientation `transposed`: the stored
  /// matrix or its memoized transpose.
  Result<const IntervalMatrix*> Oriented(const Op& op, bool transposed);
  /// Per node v, the top of the chain of ancestors-or-self of v with
  /// consecutive ids (each the previous one's parent): an ancestor row
  /// is one span per chain.  Built on first use.
  Result<const std::vector<NodeId>*> ChainTops();

  std::size_t n_ = 0;
  Shape shape_ = Shape::kBool;
  int root_ = -1;
  const Tree* tree_ = nullptr;
  ResourceGovernor* governor_ = nullptr;
  std::vector<Op> ops_;
  /// Per op: a kAnyRow/kAllRow lies below it, so a partial row demand
  /// is cheaper than the whole set.
  std::vector<bool> reduces_;
  // Origin-independent memo, per op index.
  std::vector<std::shared_ptr<const NodeSet>> whole_sets_;
  std::vector<std::shared_ptr<const std::vector<NodeSpan>>> images_;
  std::vector<signed char> bools_;  ///< -1 unknown, else 0/1
  std::vector<std::int64_t> set_runs_;  ///< runs of a whole set; -1 unknown
  std::map<const IntervalMatrix*, std::unique_ptr<const IntervalMatrix>>
      transposes_;
  std::vector<NodeId> chain_top_;
  std::unique_ptr<ScopedMemoryCharge> retained_;
};

}  // namespace treewalk

#endif  // TREEWALK_LOGIC_BITSET_EVAL_H_
