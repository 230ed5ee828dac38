#include "src/logic/compile.h"

#include <array>
#include <cassert>
#include <cstdint>
#include <map>
#include <memory>
#include <set>
#include <utility>
#include <vector>

#include "src/common/failpoint.h"
#include "src/logic/normalize.h"
#include "src/tree/interval_matrix.h"

namespace treewalk {

namespace {

/// Non-owning shared_ptr view of index-owned data (aliasing constructor
/// with an empty owner).  Only used while the index is alive; the final
/// CompiledSelector payload is deep-copied.
std::shared_ptr<const NodeSet> Alias(const NodeSet& s) {
  return std::shared_ptr<const NodeSet>(std::shared_ptr<const void>(), &s);
}
std::shared_ptr<const IntervalMatrix> Alias(const IntervalMatrix& m) {
  return std::shared_ptr<const IntervalMatrix>(std::shared_ptr<const void>(),
                                               &m);
}

void FlattenConnective(FormulaKind kind, const Formula& f,
                       std::vector<Formula>& out) {
  if (f.node().kind == kind) {
    FlattenConnective(kind, f.node().children[0], out);
    FlattenConnective(kind, f.node().children[1], out);
  } else {
    out.push_back(f);
  }
}

bool MentionsVar(const Formula& f, const std::string& v) {
  return f.FreeVariables().count(v) > 0;
}

}  // namespace

/// One compilation unit: a scratch op DAG plus variable-slot scope over
/// one AxisIndex.  Named (not anonymous) so the Compiled* classes can
/// befriend it.
class Compiler {
 public:
  explicit Compiler(const AxisIndex& index)
      : index_(index), tree_(index.tree()), n_(index.size()),
        governor_(index.governor()) {}

  Result<CompiledSelector> Selector(const Formula& formula,
                                    const std::string& x,
                                    const std::string& y) {
    TREEWALK_ASSIGN_OR_RETURN(Val v, SelectorDag(formula, x, y));
    TREEWALK_RETURN_IF_ERROR(ResolveAxisLoads());
    TREEWALK_ASSIGN_OR_RETURN(std::vector<OpValue> vals,
                              EvaluateOpsGoverned(ops_, n_, governor_));
    CompiledSelector out;
    out.n_ = n_;
    switch (v.shape) {
      case Shape::kBool:
        out.shape_ = CompiledSelector::Shape::kBool;
        out.literal_ = vals[v.op].b;
        break;
      case Shape::kSet:
        out.shape_ = v.a == 0 ? CompiledSelector::Shape::kSetX
                              : CompiledSelector::Shape::kSetY;
        out.set_ = std::make_shared<NodeSet>(*vals[v.op].set);
        break;
      case Shape::kMat:
        assert(v.a == 0 && v.b == 1);
        out.shape_ = CompiledSelector::Shape::kMat;
        // The copy shares (co-owns) the evaluation's immutable span
        // pools, so it stays self-contained after the index dies without
        // re-materializing anything.
        out.imat_ = std::make_shared<IntervalMatrix>(*vals[v.op].imat);
        break;
    }
    return out;
  }

  /// The same DAG as Selector(), kept unevaluated for seeded evaluation.
  Result<SeededSelector> Seeded(const Formula& formula, const std::string& x,
                                const std::string& y) {
    TREEWALK_ASSIGN_OR_RETURN(Val v, SelectorDag(formula, x, y));
    SeededSelector out;
    out.n_ = n_;
    out.root_ = v.op;
    out.tree_ = &tree_;
    out.governor_ = governor_;
    switch (v.shape) {
      case Shape::kBool:
        out.shape_ = SeededSelector::Shape::kBool;
        break;
      case Shape::kSet:
        out.shape_ = v.a == 0 ? SeededSelector::Shape::kSetX
                              : SeededSelector::Shape::kSetY;
        break;
      case Shape::kMat:
        assert(v.a == 0 && v.b == 1);
        out.shape_ = SeededSelector::Shape::kMat;
        break;
    }
    const std::size_t count = ops_.size();
    out.reduces_.assign(count, false);
    for (std::size_t i = 0; i < count; ++i) {
      const Op& op = ops_[i];
      bool below = op.kind == OpKind::kAnyRow || op.kind == OpKind::kAllRow;
      for (int child : {op.a, op.b, op.c}) {
        if (child >= 0 && out.reduces_[static_cast<std::size_t>(child)]) {
          below = true;
        }
      }
      out.reduces_[i] = below;
    }
    out.whole_sets_.resize(count);
    out.images_.resize(count);
    out.bools_.assign(count, -1);
    out.set_runs_.assign(count, -1);
    out.retained_ = std::make_unique<ScopedMemoryCharge>(
        governor_, MemoryCategory::kCompiledOps);
    out.ops_ = std::move(ops_);
    return out;
  }

 private:
  /// Shape of a compiled subformula value.  kSet carries its variable's
  /// slot in `a`; kMat carries (row, col) slots in (a, b) with a < b.
  /// Slots are assigned in scope order (free vars first, each quantifier
  /// strictly larger), so a quantified variable is always the column of
  /// any matrix it appears in and elimination is always a row reduction.
  enum class Shape { kBool, kSet, kMat };
  struct Val {
    Shape shape = Shape::kBool;
    int op = -1;
    int a = -1;
    int b = -1;
  };

  /// Validates a selector and compiles its NNF/miniscoped op DAG into
  /// ops_ without evaluating it: the front half Selector() and Seeded()
  /// share, so both decline exactly the same formulas.
  Result<Val> SelectorDag(const Formula& formula, const std::string& x,
                          const std::string& y) {
    TREEWALK_FAILPOINT("compiler/compile");
    TREEWALK_RETURN_IF_ERROR(GovernorCheckDeadlineNow(governor_));
    if (!formula.valid()) return InvalidArgument("empty formula");
    if (n_ == 0) return FailedPrecondition("cannot compile on an empty tree");
    if (x == y) {
      return FailedPrecondition("selector variables must be distinct");
    }
    TREEWALK_RETURN_IF_ERROR(ValidateTreeFormula(formula));
    for (const std::string& v : formula.FreeVariables()) {
      if (v != x && v != y) {
        return InvalidArgument("selector has unexpected free variable '" + v +
                               "'");
      }
    }
    binding_[x] = 0;
    binding_[y] = 1;
    next_slot_ = 2;
    return CompileNode(Miniscope(ToNegationNormalForm(formula)));
  }

  // --- Op emission with hash-consing. --------------------------------

  int Emit(Op op, std::uint64_t extra) {
    std::array<std::uint64_t, 4> key = {static_cast<std::uint64_t>(op.kind),
                                        static_cast<std::uint64_t>(op.a),
                                        static_cast<std::uint64_t>(op.b),
                                        extra};
    auto [it, inserted] = cse_.try_emplace(key, static_cast<int>(ops_.size()));
    if (inserted) ops_.push_back(std::move(op));
    return it->second;
  }
  int EmitConst(bool literal) {
    Op op;
    op.kind = OpKind::kConstBool;
    op.literal = literal;
    return Emit(std::move(op), literal ? 1 : 0);
  }
  int EmitLoadSet(std::shared_ptr<const NodeSet> s) {
    std::uint64_t extra = reinterpret_cast<std::uintptr_t>(s.get());
    Op op;
    op.kind = OpKind::kLoadSet;
    op.set = std::move(s);
    return Emit(std::move(op), extra);
  }
  /// A derived matrix (attribute-value join).
  int EmitLoadMat(std::shared_ptr<const IntervalMatrix> m) {
    std::uint64_t extra = reinterpret_cast<std::uintptr_t>(m.get());
    Op op;
    op.kind = OpKind::kLoadMat;
    op.imat = std::move(m);
    return Emit(std::move(op), extra);
  }
  /// An axis relation, or its transpose (Op::axis): resolved from the
  /// index only when the DAG is materialized.
  int EmitLoadAxis(Axis axis, bool transposed) {
    // Small codes, so they never collide with a derived load's pointer.
    std::uint64_t extra =
        static_cast<std::uint64_t>(axis) * 2 + (transposed ? 1 : 0);
    Op op;
    op.kind = OpKind::kLoadMat;
    op.axis = axis;
    op.transposed = transposed;
    return Emit(std::move(op), extra);
  }

  /// Materialization reads axis loads as the AxisIndex's interval
  /// matrices (built and charged under kAxisIndex on first use).
  Status ResolveAxisLoads() {
    for (Op& op : ops_) {
      if (op.axis == Axis::kNone) continue;
      Result<const IntervalMatrix*> rel = InvalidArgument("no axis");
      switch (op.axis) {
        case Axis::kEdge:
          rel = index_.TryEdgeIntervals();
          break;
        case Axis::kDescendant:
          rel = index_.TryDescendantIntervals();
          break;
        case Axis::kSibling:
          rel = index_.TrySiblingIntervals();
          break;
        case Axis::kSucc:
          rel = index_.TrySuccIntervals();
          break;
        case Axis::kIdentity:
          rel = index_.TryIdentityIntervals();
          break;
        case Axis::kNone:
          break;
      }
      if (!rel.ok()) return rel.status();
      op.imat = Alias(**rel);
    }
    return Status::Ok();
  }
  int Emit1(OpKind kind, int a) {
    Op op;
    op.kind = kind;
    op.a = a;
    return Emit(std::move(op), 0);
  }
  int Emit2(OpKind kind, int a, int b) {
    Op op;
    op.kind = kind;
    op.a = a;
    op.b = b;
    return Emit(std::move(op), 0);
  }
  int EmitCompose(int a, int b, int guard) {
    Op op;
    op.kind = OpKind::kCompose;
    op.a = a;
    op.b = b;
    op.c = guard;
    // guard participates in identity: same (P, Q) under different
    // guards are different joins.
    return Emit(std::move(op), static_cast<std::uint64_t>(guard + 1));
  }

  // --- Shape algebra. -------------------------------------------------

  static Val BoolVal(int op) { return Val{Shape::kBool, op, -1, -1}; }
  static Val SetVal(int op, int slot) { return Val{Shape::kSet, op, slot, -1}; }
  static Val MatVal(int op, int row, int col) {
    assert(row < col);
    return Val{Shape::kMat, op, row, col};
  }

  Val Negate(const Val& v) {
    switch (v.shape) {
      case Shape::kBool:
        return BoolVal(Emit1(OpKind::kNotBool, v.op));
      case Shape::kSet:
        return SetVal(Emit1(OpKind::kNotSet, v.op), v.a);
      case Shape::kMat:
        return MatVal(Emit1(OpKind::kNotMat, v.op), v.a, v.b);
    }
    return v;
  }

  /// Lifts `v` to a matrix over slot pair (row, col); v's variables must
  /// be a subset of {row, col}.
  Val LiftToMat(const Val& v, int row, int col) {
    switch (v.shape) {
      case Shape::kBool: {
        int s = Emit1(OpKind::kBoolToSet, v.op);
        return MatVal(Emit1(OpKind::kSetToMatRow, s), row, col);
      }
      case Shape::kSet:
        assert(v.a == row || v.a == col);
        return MatVal(Emit1(v.a == row ? OpKind::kSetToMatRow
                                       : OpKind::kSetToMatCol,
                            v.op),
                      row, col);
      case Shape::kMat:
        assert(v.a == row && v.b == col);
        return v;
    }
    return v;
  }

  /// And/Or of two compiled values, lifting shapes as needed.  Fails
  /// exactly when the combination needs three or more distinct
  /// variables (the width-2 representation limit).
  Result<Val> Combine(bool is_and, const Val& va, const Val& vb) {
    // Canonicalize: order by shape so Bool comes first, Mat last.
    if (static_cast<int>(va.shape) > static_cast<int>(vb.shape)) {
      return Combine(is_and, vb, va);
    }
    switch (va.shape) {
      case Shape::kBool:
        switch (vb.shape) {
          case Shape::kBool:
            return BoolVal(Emit2(is_and ? OpKind::kAndBool : OpKind::kOrBool,
                                 va.op, vb.op));
          case Shape::kSet: {
            int s = Emit1(OpKind::kBoolToSet, va.op);
            return SetVal(Emit2(is_and ? OpKind::kAndSet : OpKind::kOrSet, s,
                                vb.op),
                          vb.a);
          }
          case Shape::kMat: {
            Val lifted = LiftToMat(va, vb.a, vb.b);
            return MatVal(Emit2(is_and ? OpKind::kAndMat : OpKind::kOrMat,
                                lifted.op, vb.op),
                          vb.a, vb.b);
          }
        }
        break;
      case Shape::kSet:
        switch (vb.shape) {
          case Shape::kSet: {
            if (va.a == vb.a) {
              return SetVal(Emit2(is_and ? OpKind::kAndSet : OpKind::kOrSet,
                                  va.op, vb.op),
                            va.a);
            }
            int row = va.a < vb.a ? va.a : vb.a;
            int col = va.a < vb.a ? vb.a : va.a;
            Val la = LiftToMat(va, row, col);
            Val lb = LiftToMat(vb, row, col);
            return MatVal(Emit2(is_and ? OpKind::kAndMat : OpKind::kOrMat,
                                la.op, lb.op),
                          row, col);
          }
          case Shape::kMat: {
            if (va.a != vb.a && va.a != vb.b) {
              return FailedPrecondition(
                  "subformula needs more than two variables");
            }
            Val la = LiftToMat(va, vb.a, vb.b);
            return MatVal(Emit2(is_and ? OpKind::kAndMat : OpKind::kOrMat,
                                la.op, vb.op),
                          vb.a, vb.b);
          }
          default:
            break;
        }
        break;
      case Shape::kMat:
        if (va.a != vb.a || va.b != vb.b) {
          return FailedPrecondition("subformula needs more than two variables");
        }
        return MatVal(Emit2(is_and ? OpKind::kAndMat : OpKind::kOrMat, va.op,
                            vb.op),
                      va.a, va.b);
    }
    return Internal("unreachable shape combination");
  }

  Result<Val> CombineAll(bool is_and, const std::vector<Val>& vals) {
    assert(!vals.empty());
    Val acc = vals[0];
    for (std::size_t i = 1; i < vals.size(); ++i) {
      TREEWALK_ASSIGN_OR_RETURN(acc, Combine(is_and, acc, vals[i]));
    }
    return acc;
  }

  // --- Miniscoping. ----------------------------------------------------

  /// Pushes quantifiers inward at the formula level (NNF input):
  /// exists distributes over or (forall over and), and conjuncts
  /// (disjuncts) not mentioning the quantified variable are pulled out
  /// of its scope — sound because the domain is nonempty.  This runs
  /// *before* compilation so that a pulled-out conjunct lands at the
  /// scope of the quantifier that can join it: without the pass,
  /// exists z exists w (E(x,z) & E(z,w) & E(w,y)) recombines E(x,z)
  /// inside the inner exists, where it needs three variables; after it,
  /// the conjunct sits under exists z, where the guarded join pairs it
  /// with the composed inner relation.
  Formula Miniscope(const Formula& f) {
    const FormulaNode& node = f.node();
    switch (node.kind) {
      case FormulaKind::kNot:
        return Formula::Not(Miniscope(node.children[0]));
      case FormulaKind::kAnd:
        return Formula::And(Miniscope(node.children[0]),
                            Miniscope(node.children[1]));
      case FormulaKind::kOr:
        return Formula::Or(Miniscope(node.children[0]),
                           Miniscope(node.children[1]));
      case FormulaKind::kImplies:
        return Formula::Implies(Miniscope(node.children[0]),
                                Miniscope(node.children[1]));
      case FormulaKind::kIff:
        return Formula::Iff(Miniscope(node.children[0]),
                            Miniscope(node.children[1]));
      case FormulaKind::kExists:
      case FormulaKind::kForall:
        return MiniscopeQuantifier(node.kind == FormulaKind::kExists,
                                   node.var, Miniscope(node.children[0]));
      default:
        return f;
    }
  }

  Formula MiniscopeQuantifier(bool exists, const std::string& w,
                              const Formula& body) {
    if (!MentionsVar(body, w)) return body;  // vacuous on a nonempty domain
    FormulaKind dual = exists ? FormulaKind::kOr : FormulaKind::kAnd;
    if (body.node().kind == dual) {
      Formula a = MiniscopeQuantifier(exists, w, body.node().children[0]);
      Formula b = MiniscopeQuantifier(exists, w, body.node().children[1]);
      return exists ? Formula::Or(a, b) : Formula::And(a, b);
    }
    std::vector<Formula> parts;
    FlattenConnective(exists ? FormulaKind::kAnd : FormulaKind::kOr, body,
                      parts);
    std::vector<Formula> with_w, without_w;
    for (const Formula& p : parts) {
      (MentionsVar(p, w) ? with_w : without_w).push_back(p);
    }
    Formula inner_body =
        exists ? Formula::AndAll(with_w) : Formula::OrAll(with_w);
    Formula inner =
        exists ? Formula::Exists(w, inner_body) : Formula::Forall(w, inner_body);
    if (without_w.empty()) return inner;
    without_w.push_back(inner);
    return exists ? Formula::AndAll(without_w) : Formula::OrAll(without_w);
  }

  // --- Formula compilation. -------------------------------------------

  Result<int> SlotOf(const std::string& var) {
    auto it = binding_.find(var);
    if (it == binding_.end()) {
      return InvalidArgument("unbound free variable '" + var + "'");
    }
    return it->second;
  }

  Result<Val> CompileNode(const Formula& f) {
    const FormulaNode& node = f.node();
    switch (node.kind) {
      case FormulaKind::kTrue:
        return BoolVal(EmitConst(true));
      case FormulaKind::kFalse:
        return BoolVal(EmitConst(false));
      case FormulaKind::kNot: {
        TREEWALK_ASSIGN_OR_RETURN(Val v, CompileNode(node.children[0]));
        return Negate(v);
      }
      case FormulaKind::kAnd:
      case FormulaKind::kOr: {
        TREEWALK_ASSIGN_OR_RETURN(Val a, CompileNode(node.children[0]));
        TREEWALK_ASSIGN_OR_RETURN(Val b, CompileNode(node.children[1]));
        return Combine(node.kind == FormulaKind::kAnd, a, b);
      }
      case FormulaKind::kImplies:
        // NNF removes these; kept for robustness on raw input.
        return CompileNode(
            Formula::Or(Formula::Not(node.children[0]), node.children[1]));
      case FormulaKind::kIff:
        return CompileNode(Formula::Or(
            Formula::And(node.children[0], node.children[1]),
            Formula::And(Formula::Not(node.children[0]),
                         Formula::Not(node.children[1]))));
      case FormulaKind::kExists:
        return CompileQuantifier(/*exists=*/true, node.var, node.children[0]);
      case FormulaKind::kForall:
        return CompileQuantifier(/*exists=*/false, node.var, node.children[0]);
      case FormulaKind::kAtom:
        return CompileAtom(node);
    }
    return Internal("unknown formula kind");
  }

  /// Quantifier compilation: miniscope, bind a fresh (strictly largest)
  /// slot, compile the parts that mention the variable, and eliminate
  /// the slot by a row reduction — or, when the parts straddle two other
  /// variables, by the guarded-join composition.  Scope extraction
  /// (exists w (A & B) = A & exists w B for w-free A, dually for
  /// forall/or) relies on the domain being nonempty, which Selector()
  /// and Seeded() guarantee.
  Result<Val> CompileQuantifier(bool exists, const std::string& w,
                                const Formula& body) {
    FormulaKind dual = exists ? FormulaKind::kOr : FormulaKind::kAnd;
    if (body.node().kind == dual) {
      // exists distributes over or (forall over and).
      TREEWALK_ASSIGN_OR_RETURN(
          Val a, CompileQuantifier(exists, w, body.node().children[0]));
      TREEWALK_ASSIGN_OR_RETURN(
          Val b, CompileQuantifier(exists, w, body.node().children[1]));
      return Combine(!exists, a, b);
    }

    std::vector<Formula> parts;
    FlattenConnective(exists ? FormulaKind::kAnd : FormulaKind::kOr, body,
                      parts);
    std::vector<Formula> with_w, without_w;
    for (const Formula& p : parts) {
      (MentionsVar(p, w) ? with_w : without_w).push_back(p);
    }

    std::vector<Val> outer;
    outer.reserve(without_w.size() + 1);
    for (const Formula& p : without_w) {
      TREEWALK_ASSIGN_OR_RETURN(Val v, CompileNode(p));
      outer.push_back(v);
    }
    if (!with_w.empty()) {
      TREEWALK_ASSIGN_OR_RETURN(Val inner,
                                EliminateVar(exists, w, with_w));
      outer.push_back(inner);
    }
    return CombineAll(exists, outer);
  }

  /// Compiles `parts` (each mentioning `w`) under a fresh binding of `w`
  /// and returns their conjunction (exists) / disjunction (forall) with
  /// `w` eliminated.
  Result<Val> EliminateVar(bool exists, const std::string& w,
                           const std::vector<Formula>& parts) {
    auto saved = binding_.find(w);
    int saved_slot = saved != binding_.end() ? saved->second : -1;
    int slot_w = next_slot_++;
    binding_[w] = slot_w;

    std::vector<Val> vals;
    vals.reserve(parts.size());
    Status failure = Status::Ok();
    for (const Formula& p : parts) {
      Result<Val> r = CompileNode(p);
      if (!r.ok()) {
        failure = r.status();
        break;
      }
      vals.push_back(*r);
    }

    Result<Val> out = failure.ok() ? Reduce(exists, slot_w, vals)
                                   : Result<Val>(failure);

    if (saved_slot >= 0) {
      binding_[w] = saved_slot;
    } else {
      binding_.erase(w);
    }
    return out;
  }

  Result<Val> Reduce(bool exists, int slot_w, const std::vector<Val>& vals) {
    Result<Val> folded = CombineAll(exists, vals);
    Val v;
    if (folded.ok()) {
      v = *folded;
    } else {
      // Width overflow: the parts straddle two variables besides w.
      // Try the guarded join.
      TREEWALK_ASSIGN_OR_RETURN(v, GuardedJoin(exists, slot_w, vals));
      return v;  // join already eliminated w
    }
    switch (v.shape) {
      case Shape::kBool:
        return v;  // w unused; exists/forall over a nonempty domain
      case Shape::kSet:
        if (v.a != slot_w) return v;
        return BoolVal(
            Emit1(exists ? OpKind::kAnySet : OpKind::kAllSet, v.op));
      case Shape::kMat:
        // slot_w is the largest live slot, so it must be the column.
        assert(v.b == slot_w);
        return SetVal(Emit1(exists ? OpKind::kAnyRow : OpKind::kAllRow, v.op),
                      v.a);
    }
    return Internal("unreachable reduce shape");
  }

  /// exists w (P(a, w) & Q(b, w)) as a boolean composition
  /// R[u][v] = exists w P[u][w] & Q[v][w] (kCompose); the forall dual
  /// goes through De Morgan: forall w (P | Q) = !exists w (!P & !Q).
  /// `vals` are the compiled w-parts; each must be Set(w) or Mat(*, w)
  /// with exactly two distinct row variables among them.
  Result<Val> GuardedJoin(bool exists, int slot_w,
                          const std::vector<Val>& vals) {
    std::vector<Val> wsets;
    std::map<int, std::vector<Val>> groups;  // row slot -> mats
    for (const Val& v : vals) {
      if (v.shape == Shape::kSet && v.a == slot_w) {
        wsets.push_back(v);
      } else if (v.shape == Shape::kMat && v.b == slot_w) {
        groups[v.a].push_back(v);
      } else {
        return FailedPrecondition("subformula needs more than two variables");
      }
    }
    if (groups.size() != 2) {
      return FailedPrecondition("subformula needs more than two variables");
    }
    auto it = groups.begin();
    int slot_a = it->first;
    TREEWALK_ASSIGN_OR_RETURN(Val mat_a, CombineAll(exists, it->second));
    ++it;
    int slot_b = it->first;
    TREEWALK_ASSIGN_OR_RETURN(Val mat_b, CombineAll(exists, it->second));
    // Fold parts that mention only w into the join's guard set: the
    // composition then tests C[w] per joined member instead of paying
    // for a column-broadcast matrix and an intersection — on the
    // interval representation that broadcast is the difference between
    // an O(n + spans) join and an O(n * spans) one.  Under the forall
    // dual (forall w (P | Q | S) = !exists w (!P & !Q & !S)) the guard
    // is the complement of the disjoined w-sets.
    int guard = -1;
    for (const Val& s : wsets) {
      guard = guard < 0 ? s.op
                        : Emit2(exists ? OpKind::kAndSet : OpKind::kOrSet,
                                guard, s.op);
    }
    if (guard >= 0 && !exists) guard = Emit1(OpKind::kNotSet, guard);
    int pa = mat_a.op, pb = mat_b.op;
    if (!exists) {
      pa = Emit1(OpKind::kNotMat, pa);
      pb = Emit1(OpKind::kNotMat, pb);
    }
    // kCompose rows come from the first operand; order so the smaller
    // slot is the row, keeping the result canonical.
    int composed = slot_a < slot_b ? EmitCompose(pa, pb, guard)
                                   : EmitCompose(pb, pa, guard);
    if (!exists) composed = Emit1(OpKind::kNotMat, composed);
    int row = slot_a < slot_b ? slot_a : slot_b;
    int col = slot_a < slot_b ? slot_b : slot_a;
    return MatVal(composed, row, col);
  }

  // --- Atoms. ----------------------------------------------------------

  Result<Val> CompileAtom(const FormulaNode& node) {
    switch (node.atom) {
      case AtomKind::kRoot:
        return UnarySet(node.terms[0], index_.Roots());
      case AtomKind::kLeaf:
        return UnarySet(node.terms[0], index_.Leaves());
      case AtomKind::kFirst:
        return UnarySet(node.terms[0], index_.FirstChildren());
      case AtomKind::kLast:
        return UnarySet(node.terms[0], index_.LastChildren());
      case AtomKind::kLabel:
        return UnarySet(node.terms[0], index_.LabelSet(node.symbol));
      case AtomKind::kEdge:
        return BinaryAxis(node, Axis::kEdge);
      case AtomKind::kSibling:
        return BinaryAxis(node, Axis::kSibling);
      case AtomKind::kDescendant:
        return BinaryAxis(node, Axis::kDescendant);
      case AtomKind::kSucc:
        return BinaryAxis(node, Axis::kSucc);
      case AtomKind::kEq: {
        const Term& a = node.terms[0];
        const Term& b = node.terms[1];
        if (a.kind == Term::Kind::kVar) return NodeEq(a, b);
        return DataEq(a, b);
      }
      case AtomKind::kRelation:
        return FailedPrecondition("store atom in a tree formula");
    }
    return Internal("unknown atom kind");
  }

  Result<Val> UnarySet(const Term& t, const NodeSet& s) {
    TREEWALK_ASSIGN_OR_RETURN(int slot, SlotOf(t.var));
    return SetVal(EmitLoadSet(Alias(s)), slot);
  }

  /// Irreflexive axis relation R(u, v): loads R (or its transpose, when
  /// the terms arrive in descending slot order) as a matrix; R(x, x) is
  /// uniformly false for all four axes.
  Result<Val> BinaryAxis(const FormulaNode& node, Axis axis) {
    TREEWALK_ASSIGN_OR_RETURN(int su, SlotOf(node.terms[0].var));
    TREEWALK_ASSIGN_OR_RETURN(int sv, SlotOf(node.terms[1].var));
    if (su == sv) {
      return SetVal(EmitLoadSet(Alias(index_.Empty())), su);
    }
    if (su < sv) return MatVal(EmitLoadAxis(axis, false), su, sv);
    return MatVal(EmitLoadAxis(axis, true), sv, su);
  }

  Result<Val> NodeEq(const Term& a, const Term& b) {
    TREEWALK_ASSIGN_OR_RETURN(int sa, SlotOf(a.var));
    TREEWALK_ASSIGN_OR_RETURN(int sb, SlotOf(b.var));
    if (sa == sb) {
      return SetVal(EmitLoadSet(Alias(index_.Full())), sa);
    }
    // The identity matrix is symmetric; no transpose needed.
    return MatVal(EmitLoadAxis(Axis::kIdentity, false), sa < sb ? sa : sb,
                  sa < sb ? sb : sa);
  }

  Result<Val> DataEq(const Term& a, const Term& b) {
    bool a_attr = a.kind == Term::Kind::kAttrOfVar;
    bool b_attr = b.kind == Term::Kind::kAttrOfVar;
    if (!a_attr && !b_attr) {
      TREEWALK_ASSIGN_OR_RETURN(DataValue da, ConstData(a));
      TREEWALK_ASSIGN_OR_RETURN(DataValue db, ConstData(b));
      return BoolVal(EmitConst(da == db));
    }
    if (a_attr != b_attr) {
      const Term& attr_term = a_attr ? a : b;
      const Term& const_term = a_attr ? b : a;
      TREEWALK_ASSIGN_OR_RETURN(AttrId attr, AttrIdOf(attr_term));
      TREEWALK_ASSIGN_OR_RETURN(int slot, SlotOf(attr_term.var));
      TREEWALK_ASSIGN_OR_RETURN(DataValue v, ConstData(const_term));
      TREEWALK_ASSIGN_OR_RETURN(const NodeSet* s,
                                index_.TryAttrValueSet(attr, v));
      return SetVal(EmitLoadSet(Alias(*s)), slot);
    }
    TREEWALK_ASSIGN_OR_RETURN(AttrId aa, AttrIdOf(a));
    TREEWALK_ASSIGN_OR_RETURN(AttrId ab, AttrIdOf(b));
    TREEWALK_ASSIGN_OR_RETURN(int sa, SlotOf(a.var));
    TREEWALK_ASSIGN_OR_RETURN(int sb, SlotOf(b.var));
    if (sa == sb) {
      TREEWALK_ASSIGN_OR_RETURN(std::shared_ptr<const NodeSet> s,
                                AttrPairSet(aa, ab));
      return SetVal(EmitLoadSet(std::move(s)), sa);
    }
    // Canonical orientation: rows are the smaller slot's variable.
    AttrId row_attr = sa < sb ? aa : ab;
    AttrId col_attr = sa < sb ? ab : aa;
    TREEWALK_ASSIGN_OR_RETURN(std::shared_ptr<const IntervalMatrix> m,
                              AttrPairMat(row_attr, col_attr));
    return MatVal(EmitLoadMat(std::move(m)), sa < sb ? sa : sb,
                  sa < sb ? sb : sa);
  }

  Result<DataValue> ConstData(const Term& t) {
    switch (t.kind) {
      case Term::Kind::kIntConst:
        return t.value;
      case Term::Kind::kStrConst:
        return tree_.values().ValueFor(t.text);
      default:
        return FailedPrecondition("non-constant data term");
    }
  }

  Result<AttrId> AttrIdOf(const Term& t) {
    AttrId a = tree_.FindAttribute(t.attr);
    if (a == kNoAttr) {
      return InvalidArgument("tree has no attribute '" + t.attr + "'");
    }
    return a;
  }

  // --- Derived relation materialization (cached per compilation). ------
  //
  // These are compiler-owned (unlike the AxisIndex memos) and die with
  // the Compiler, so each is charged under kCompiledOps on first build;
  // the governed op evaluation releases only its own transient charges,
  // so these stay charged for the compilation's lifetime.

  /// {u : attr(a, u) == attr(b, u)}.
  Result<std::shared_ptr<const NodeSet>> AttrPairSet(AttrId a, AttrId b) {
    auto [it, inserted] = attr_pair_sets_.try_emplace({a, b});
    if (inserted) {
      Status charge =
          GovernorCharge(governor_, MemoryCategory::kCompiledOps,
                         static_cast<std::int64_t>((n_ + 63) / 64 * 8 + 48));
      if (!charge.ok()) {
        attr_pair_sets_.erase(it);
        return charge;
      }
      auto s = std::make_shared<NodeSet>(n_);
      for (NodeId u = 0; u < static_cast<NodeId>(n_); ++u) {
        if (tree_.attr(a, u) == tree_.attr(b, u)) s->set(u);
      }
      it->second = std::move(s);
    }
    return it->second;
  }

  /// {(u, v) : attr(row_attr, u) == attr(col_attr, v)}: a value join
  /// over the attribute-value indexes.  All rows whose row-attr value
  /// is v alias one span image of {u : attr(col_attr, u) == v}, so the
  /// matrix costs O(n + total column runs) instead of |rows| * n bits.
  Result<std::shared_ptr<const IntervalMatrix>> AttrPairMat(AttrId row_attr,
                                                            AttrId col_attr) {
    auto found = attr_pair_mats_.find({row_attr, col_attr});
    if (found != attr_pair_mats_.end()) return found->second;
    TREEWALK_ASSIGN_OR_RETURN(const std::vector<DataValue>* values,
                              index_.TryAttrValues(row_attr));
    TREEWALK_ASSIGN_OR_RETURN(const std::vector<DataValue>* col_values,
                              index_.TryAttrValues(col_attr));
    (void)col_values;
    Result<IntervalMatrix> built = IntervalMatrix();
    {
      // The output size is data-dependent (O(column runs)), so the build
      // runs against a transient charge that bounds its peak, and the
      // survivor is re-charged at its exact footprint for the
      // compilation's lifetime.
      ScopedMemoryCharge building(governor_, MemoryCategory::kCompiledOps);
      IntervalMatrixBuilder b(n_, governor_ != nullptr ? &building : nullptr);
      for (DataValue v : *values) {
        const NodeSet& cols = index_.AttrValueSet(col_attr, v);
        std::vector<NodeId> rows = index_.AttrValueSet(row_attr, v).ToVector();
        if (rows.empty() || !cols.any()) continue;
        // The builder latches its first failure and Finish() reports
        // it, so the span statuses need no per-call handling.
        NodeId run_begin = kNoNode, run_end = kNoNode;
        for (NodeId u : cols.ToVector()) {
          if (run_begin == kNoNode) {
            run_begin = u;
            run_end = u + 1;
          } else if (u == run_end) {
            ++run_end;
          } else {
            (void)b.AddSpan(run_begin, run_end);
            run_begin = u;
            run_end = u + 1;
          }
        }
        if (run_begin != kNoNode) (void)b.AddSpan(run_begin, run_end);
        (void)b.CommitRow(rows[0]);
        for (std::size_t i = 1; i < rows.size(); ++i) {
          (void)b.AliasRow(rows[i], rows[0]);
        }
      }
      built = std::move(b).Finish();
      if (built.ok()) {
        TREEWALK_RETURN_IF_ERROR(GovernorCharge(governor_,
                                                MemoryCategory::kCompiledOps,
                                                (*built).ApproxBytes()));
      }
    }
    if (!built.ok()) return built.status();
    auto sp = std::make_shared<const IntervalMatrix>(std::move(built).value());
    attr_pair_mats_.emplace(std::make_pair(row_attr, col_attr), sp);
    return sp;
  }

  const AxisIndex& index_;
  const Tree& tree_;
  std::size_t n_;
  ResourceGovernor* governor_ = nullptr;

  std::vector<Op> ops_;
  std::map<std::array<std::uint64_t, 4>, int> cse_;
  std::map<std::string, int> binding_;
  int next_slot_ = 0;

  std::map<std::pair<AttrId, AttrId>, std::shared_ptr<const NodeSet>>
      attr_pair_sets_;
  std::map<std::pair<AttrId, AttrId>, std::shared_ptr<const IntervalMatrix>>
      attr_pair_mats_;
};

Result<CompiledSelector> CompileSelector(const AxisIndex& index,
                                         const Formula& formula,
                                         const std::string& x,
                                         const std::string& y,
                                         AxisRepr /*repr*/) {
  Compiler compiler(index);
  return compiler.Selector(formula, x, y);
}

Result<SeededSelector> PrepareSelector(const AxisIndex& index,
                                       const Formula& formula,
                                       const std::string& x,
                                       const std::string& y) {
  Compiler compiler(index);
  return compiler.Seeded(formula, x, y);
}

}  // namespace treewalk
