// Seeded evaluation of a compiled selector's op DAG (docs/EVALUATOR.md,
// "Seeded evaluation"): the same ops EvaluateOps materializes, evaluated
// only at the rows one origin demands.
//
// Demand pushdown, per op kind (matrix ops are asked for a sorted row
// list, in one of two orientations — transposition commutes with the
// connectives, swaps the two broadcasts and the two compose operands):
//
//   kLoadMat            an axis relation's demanded rows by tree
//                       navigation (either orientation); a derived
//                       matrix's stored rows, or its transpose's
//                       (memoized once per selector);
//   kAndMat/kOrMat/
//   kNotMat             both operands at the same rows, span algebra
//                       per row;
//   kSetToMatRow        the set at the same rows (full or empty rows);
//   kSetToMatCol        the whole set: every row is its span image;
//   kCompose(P, Q, C)   P at rows U, then Q transposed at the joined
//                       members W = U's P-rows ∩ C — the semijoin — and
//                       each row is the union of its members' Q^T rows
//                       (for one row and an axis Q, W's image under
//                       the axis, each node navigated to once);
//   kAnyRow/kAllRow     the matrix at the set's demanded rows (all rows,
//                       in bounded chunks, when the set is demanded
//                       whole).
//
// Sets are whole NodeSets (O(n/64) per set op) valid at least on their
// demanded rows; a set demanded whole is origin-independent and
// memoized, like closed (Bool) subformulas and span images.

#include <algorithm>
#include <bit>
#include <cassert>
#include <deque>
#include <numeric>
#include <span>
#include <utility>

#include "src/logic/bitset_eval.h"

namespace treewalk {

namespace {

/// Rows per chunk when a whole set reduces a matrix: bounds one
/// chunk's descriptors, so no op holds n rows at once.
constexpr std::size_t kChunkRows = 4096;

std::int64_t SetBytes(std::size_t n) {
  return static_cast<std::int64_t>((n + 63) / 64 * 8 + 48);
}

/// The demanded rows of one matrix op in one orientation: a sorted row
/// list with each row's normalized spans, or one span list shared by
/// every row (a column broadcast).  Its heap is charged to kCompiledOps
/// *before* it grows: every row producer first reserves an upper bound
/// on the spans it appends, so a budget trip comes before the
/// allocation, not after it.
class RowBatch {
 public:
  explicit RowBatch(ResourceGovernor* governor)
      : charge_(governor, MemoryCategory::kCompiledOps) {}

  /// Empties the batch for `rows` demanded rows.
  Status Reset(std::size_t rows) {
    spans_.clear();
    start_.clear();
    shared_ = nullptr;
    const std::size_t starts = std::max(start_.capacity(), rows + 1);
    TREEWALK_RETURN_IF_ERROR(ChargeFor(spans_.capacity(), starts));
    start_.reserve(starts);
    start_.push_back(0);
    return Status::Ok();
  }
  /// Room for `more` more spans, charged before the buffer grows.
  Status Reserve(std::size_t more) {
    const std::size_t need = spans_.size() + more;
    if (need <= spans_.capacity()) return Status::Ok();
    const std::size_t cap =
        std::max(need, spans_.capacity() + spans_.capacity() / 2);
    TREEWALK_RETURN_IF_ERROR(ChargeFor(cap, start_.capacity()));
    spans_.reserve(cap);
    return Status::Ok();
  }
  /// Row k of the demanded list.
  std::span<const NodeSpan> Row(std::size_t k) const {
    if (shared_ != nullptr) return *shared_;
    return {spans_.data() + start_[k], start_[k + 1] - start_[k]};
  }
  std::vector<NodeSpan>& spans() { return spans_; }
  void EndRow() {
    // A producer appended no more than it reserved.
    assert(spans_.capacity() <= charged_spans_);
    start_.push_back(spans_.size());
  }
  void Share(const std::vector<NodeSpan>* image) { shared_ = image; }
  /// Every row is one shared span list (a column broadcast).
  bool shared() const { return shared_ != nullptr; }

 private:
  /// Charges the growth to `spans` spans and `starts` row offsets.
  Status ChargeFor(std::size_t spans, std::size_t starts) {
    const std::int64_t bytes =
        static_cast<std::int64_t>(spans * sizeof(NodeSpan) +
                                  starts * sizeof(std::size_t));
    if (bytes > charged_) {
      TREEWALK_RETURN_IF_ERROR(charge_.Add(bytes - charged_));
      charged_ = bytes;
    }
    charged_spans_ = std::max(charged_spans_, spans);
    return Status::Ok();
  }

  ScopedMemoryCharge charge_;
  std::int64_t charged_ = 0;
  std::size_t charged_spans_ = 0;
  std::vector<NodeSpan> spans_;
  std::vector<std::size_t> start_;
  const std::vector<NodeSpan>* shared_ = nullptr;
};

/// First u in [from, hi) with s[u] == bit, else hi.
NodeId NextBit(const NodeSet& s, NodeId from, NodeId hi, bool bit) {
  const std::uint64_t* words = s.words();
  while (from < hi) {
    const std::size_t i = static_cast<std::size_t>(from) >> 6;
    std::uint64_t word = bit ? words[i] : ~words[i];
    word &= ~std::uint64_t{0} << (from & 63);
    if (word != 0) {
      return std::min(hi, static_cast<NodeId>(i * 64 + std::countr_zero(word)));
    }
    from = static_cast<NodeId>((i + 1) * 64);
  }
  return hi;
}

/// Appends the maximal runs of set bits of `s` within [lo, hi): a row
/// span intersected with a whole set, word-parallel.
void AppendSetRuns(const NodeSet& s, NodeId lo, NodeId hi,
                   std::vector<NodeSpan>& out) {
  while (lo < hi) {
    const NodeId begin = NextBit(s, lo, hi, true);
    if (begin >= hi) return;
    lo = NextBit(s, begin, hi, false);
    out.push_back({begin, lo});
  }
}

/// How many spans AppendSetRuns(s, lo, hi, ...) appends.
std::size_t CountSetRuns(const NodeSet& s, NodeId lo, NodeId hi) {
  std::size_t runs = 0;
  while (lo < hi) {
    const NodeId begin = NextBit(s, lo, hi, true);
    if (begin >= hi) break;
    ++runs;
    lo = NextBit(s, begin, hi, false);
  }
  return runs;
}

/// Set bits of `s` within [lo, hi), word-parallel.
std::size_t CountBits(const NodeSet& s, NodeId lo, NodeId hi) {
  const std::uint64_t* words = s.words();
  std::size_t count = 0;
  while (lo < hi) {
    const std::size_t i = static_cast<std::size_t>(lo) >> 6;
    const NodeId word_end = static_cast<NodeId>((i + 1) * 64);
    std::uint64_t word = words[i] & (~std::uint64_t{0} << (lo & 63));
    if (hi < word_end) word &= (std::uint64_t{1} << (hi & 63)) - 1;
    count += static_cast<std::size_t>(std::popcount(word));
    lo = word_end;
  }
  return count;
}

/// Appends sibling s to the row being built from `first` on, extending
/// the last span when s is adjacent (s's previous sibling is a leaf).
void AppendPoint(NodeId s, std::size_t first, std::vector<NodeSpan>& out) {
  if (out.size() > first && out.back().end == s) {
    ++out.back().end;
  } else {
    out.push_back({s, s + 1});
  }
}

/// Appends the siblings from `s` on, stopping before sibling `stop`
/// (kNoNode: the last).  The caller reserved one span per sibling.
void AppendSiblings(const Tree& t, NodeId s, NodeId stop,
                    std::vector<NodeSpan>& out) {
  const std::size_t first = out.size();
  for (; s != kNoNode && s != stop; s = t.NextSibling(s)) {
    AppendPoint(s, first, out);
  }
}

/// At least the number of spans AppendAxisRow appends for row u; O(1).
/// Not for ancestor rows (kDescendant transposed), which
/// AppendAncestorRow grows itself.
std::size_t AxisRowBound(const Tree& t, Axis axis, bool transposed,
                         NodeId u) {
  switch (axis) {
    case Axis::kEdge:
      return transposed ? 1 : static_cast<std::size_t>(t.ChildCount(u));
    case Axis::kSibling: {
      const NodeId parent = t.Parent(u);
      if (parent == kNoNode) return 0;
      const std::size_t before = static_cast<std::size_t>(t.ChildIndex(u));
      return transposed ? before
                        : static_cast<std::size_t>(t.ChildCount(parent)) -
                              before - 1;
    }
    case Axis::kDescendant:
    case Axis::kSucc:
    case Axis::kIdentity:
      return 1;
    case Axis::kNone:
      break;
  }
  return 0;
}

/// Row u of an axis relation (or, `transposed`, of its transpose) by
/// tree navigation, in O(1 + the nodes it lists): what the AxisIndex's
/// interval matrix would hold, without building it.  `out` has room for
/// AxisRowBound spans.
void AppendAxisRow(const Tree& t, Axis axis, bool transposed, NodeId u,
                   std::vector<NodeSpan>& out) {
  switch (axis) {
    case Axis::kEdge:
      if (!transposed) {
        AppendSiblings(t, t.FirstChild(u), kNoNode, out);
      } else if (t.Parent(u) != kNoNode) {
        out.push_back({t.Parent(u), t.Parent(u) + 1});
      }
      return;
    case Axis::kDescendant:
      assert(!transposed);
      if (u + 1 < t.SubtreeEnd(u)) out.push_back({u + 1, t.SubtreeEnd(u)});
      return;
    case Axis::kSibling: {
      const NodeId parent = t.Parent(u);
      if (parent == kNoNode) return;
      if (!transposed) {
        AppendSiblings(t, t.NextSibling(u), kNoNode, out);
      } else {
        AppendSiblings(t, t.FirstChild(parent), u, out);
      }
      return;
    }
    case Axis::kSucc: {
      const NodeId s = transposed ? t.PrevSibling(u) : t.NextSibling(u);
      if (s != kNoNode) out.push_back({s, s + 1});
      return;
    }
    case Axis::kIdentity:
      out.push_back({u, u + 1});
      return;
    case Axis::kNone:
      return;
  }
}

/// Row u of the ancestor relation (desc transposed), in O(1 + its
/// spans): `chain_top` (SeededSelector::ChainTops) steps over each chain
/// of ancestors with consecutive ids at once.  Chains are collected
/// upward, then reversed into ascending order.
Status AppendAncestorRow(const Tree& t, const std::vector<NodeId>& chain_top,
                         NodeId u, RowBatch& out) {
  std::vector<NodeSpan>& spans = out.spans();
  const std::size_t first = spans.size();
  for (NodeId a = t.Parent(u); a != kNoNode;) {
    const NodeId chain = chain_top[static_cast<std::size_t>(a)];
    if (spans.size() == spans.capacity()) {
      TREEWALK_RETURN_IF_ERROR(out.Reserve(1));
    }
    spans.push_back({chain, a + 1});
    a = t.Parent(chain);
  }
  std::reverse(spans.begin() + static_cast<std::ptrdiff_t>(first),
               spans.end());
  return Status::Ok();
}

/// Sorts `spans` by start and merges overlapping or adjacent runs into
/// `out` (normalized).
void MergeUnsorted(std::vector<NodeSpan>& spans, std::vector<NodeSpan>& out) {
  std::sort(spans.begin(), spans.end(),
            [](const NodeSpan& a, const NodeSpan& b) {
              return a.begin < b.begin;
            });
  const std::size_t first = out.size();
  for (const NodeSpan& s : spans) {
    if (out.size() > first && s.begin <= out.back().end) {
      out.back().end = std::max(out.back().end, s.end);
    } else {
      out.push_back(s);
    }
  }
}

}  // namespace

/// One SelectFrom call: evaluates the demanded part of the DAG against
/// the selector's memo.  Transient values live (and stay charged) until
/// the evaluation ends.
class SeededEvaluation {
 public:
  explicit SeededEvaluation(SeededSelector& sel)
      : sel_(sel),
        ops_(sel.ops_),
        n_(sel.n_),
        governor_(sel.governor_),
        transient_(governor_, MemoryCategory::kCompiledOps) {}

  /// Op `i` (matrix-shaped) at `rows` (sorted, distinct), read as its
  /// transpose when `transposed`; row k of `out` is rows[k]'s.
  Status Rows(int i, bool transposed, const std::vector<NodeId>& rows,
              RowBatch& out) {
    TREEWALK_RETURN_IF_ERROR(GovernorCheckDeadlineNow(governor_));
    const Op& op = ops_[static_cast<std::size_t>(i)];
    TREEWALK_RETURN_IF_ERROR(out.Reset(rows.size()));
    switch (op.kind) {
      case OpKind::kLoadMat: {
        if (op.axis != Axis::kNone) {
          const Tree& t = *sel_.tree_;
          const bool flip = op.transposed != transposed;
          if (op.axis == Axis::kDescendant && flip) {
            TREEWALK_ASSIGN_OR_RETURN(const std::vector<NodeId>* chain_top,
                                      sel_.ChainTops());
            for (NodeId u : rows) {
              TREEWALK_RETURN_IF_ERROR(
                  AppendAncestorRow(t, *chain_top, u, out));
              out.EndRow();
            }
            break;
          }
          std::size_t bound = 0;
          for (NodeId u : rows) bound += AxisRowBound(t, op.axis, flip, u);
          TREEWALK_RETURN_IF_ERROR(out.Reserve(bound));
          for (NodeId u : rows) {
            AppendAxisRow(t, op.axis, flip, u, out.spans());
            out.EndRow();
          }
          break;
        }
        TREEWALK_ASSIGN_OR_RETURN(const IntervalMatrix* m,
                                  sel_.Oriented(op, transposed));
        std::size_t bound = 0;
        for (NodeId u : rows) bound += m->RowSpanBound(u);
        TREEWALK_RETURN_IF_ERROR(out.Reserve(bound));
        for (NodeId u : rows) {
          m->AppendLogicalRow(u, out.spans());
          out.EndRow();
        }
        break;
      }
      case OpKind::kNotMat: {
        RowBatch a(governor_);
        TREEWALK_RETURN_IF_ERROR(Rows(op.a, transposed, rows, a));
        std::size_t bound = 0;
        for (std::size_t k = 0; k < rows.size(); ++k) {
          bound += a.Row(k).size() + 1;
        }
        TREEWALK_RETURN_IF_ERROR(out.Reserve(bound));
        for (std::size_t k = 0; k < rows.size(); ++k) {
          SpanComplement(a.Row(k), static_cast<NodeId>(n_), out.spans());
          out.EndRow();
        }
        break;
      }
      case OpKind::kAndMat:
      case OpKind::kOrMat: {
        // A conjunct that broadcasts a whole set along the columns is
        // intersected bit-wise, without its span image.
        int set_side = -1;
        if (op.kind == OpKind::kAndMat) {
          if (ColumnBroadcast(op.b, transposed)) {
            set_side = op.b;
          } else if (ColumnBroadcast(op.a, transposed)) {
            set_side = op.a;
          }
        }
        if (set_side >= 0) {
          const int other = set_side == op.b ? op.a : op.b;
          const int set_op = ops_[static_cast<std::size_t>(set_side)].a;
          TREEWALK_ASSIGN_OR_RETURN(const NodeSet* s, Set(set_op, nullptr));
          const std::size_t set_runs = SetRuns(set_op, *s);
          RowBatch a(governor_);
          TREEWALK_RETURN_IF_ERROR(Rows(other, transposed, rows, a));
          // A span of length L holds at most (L + 1) / 2 runs of the set,
          // and a row no more than the set's runs plus one split per span.
          std::size_t bound = 0;
          for (std::size_t k = 0; k < rows.size(); ++k) {
            std::size_t runs = 0;
            for (const NodeSpan& span : a.Row(k)) {
              runs += static_cast<std::size_t>(span.end - span.begin + 1) / 2;
            }
            bound += std::min(runs, set_runs + a.Row(k).size());
          }
          TREEWALK_RETURN_IF_ERROR(out.Reserve(bound));
          for (std::size_t k = 0; k < rows.size(); ++k) {
            for (const NodeSpan& span : a.Row(k)) {
              AppendSetRuns(*s, span.begin, span.end, out.spans());
            }
            out.EndRow();
          }
          break;
        }
        RowBatch a(governor_), b(governor_);
        TREEWALK_RETURN_IF_ERROR(Rows(op.a, transposed, rows, a));
        TREEWALK_RETURN_IF_ERROR(Rows(op.b, transposed, rows, b));
        std::size_t bound = 0;
        for (std::size_t k = 0; k < rows.size(); ++k) {
          bound += a.Row(k).size() + b.Row(k).size();
        }
        TREEWALK_RETURN_IF_ERROR(out.Reserve(bound));
        for (std::size_t k = 0; k < rows.size(); ++k) {
          if (op.kind == OpKind::kAndMat) {
            SpanIntersect(a.Row(k), b.Row(k), out.spans());
          } else {
            SpanUnion(a.Row(k), b.Row(k), out.spans());
          }
          out.EndRow();
        }
        break;
      }
      case OpKind::kSetToMatRow:
      case OpKind::kSetToMatCol: {
        if (!ColumnBroadcast(i, transposed)) {
          TREEWALK_ASSIGN_OR_RETURN(const NodeSet* s, Set(op.a, &rows));
          TREEWALK_RETURN_IF_ERROR(out.Reserve(rows.size()));
          for (NodeId u : rows) {
            if (s->test(u)) out.spans().push_back({0, static_cast<NodeId>(n_)});
            out.EndRow();
          }
        } else {
          TREEWALK_ASSIGN_OR_RETURN(const std::vector<NodeSpan>* image,
                                    Image(op.a));
          out.Share(image);
        }
        break;
      }
      case OpKind::kCompose:
        TREEWALK_RETURN_IF_ERROR(Compose(op, transposed, rows, out));
        break;
      default:
        return Internal("seeded evaluation: op is not matrix-shaped");
    }
    return Status::Ok();
  }

  /// Op `i` (set-shaped), valid at least on `rows`, or everywhere (and
  /// memoized) when `rows` is null.
  Result<const NodeSet*> Set(int i, const std::vector<NodeId>* rows) {
    const std::size_t idx = static_cast<std::size_t>(i);
    if (sel_.whole_sets_[idx] != nullptr) return sel_.whole_sets_[idx].get();
    const Op& op = ops_[idx];
    if (op.kind == OpKind::kLoadSet) return op.set.get();
    // Without a reduction below, the whole set costs O(n/64) per op:
    // compute it once instead of once per origin.
    if (!sel_.reduces_[idx]) rows = nullptr;
    TREEWALK_RETURN_IF_ERROR(GovernorCheckDeadlineNow(governor_));
    TREEWALK_RETURN_IF_ERROR(
        (rows == nullptr ? *sel_.retained_ : transient_).Add(SetBytes(n_)));
    NodeSet value;
    switch (op.kind) {
      case OpKind::kNotSet: {
        TREEWALK_ASSIGN_OR_RETURN(const NodeSet* a, Set(op.a, rows));
        value = *a;
        value.Complement();
        break;
      }
      case OpKind::kAndSet:
      case OpKind::kOrSet: {
        TREEWALK_ASSIGN_OR_RETURN(const NodeSet* a, Set(op.a, rows));
        TREEWALK_ASSIGN_OR_RETURN(const NodeSet* b, Set(op.b, rows));
        value = *a;
        if (op.kind == OpKind::kAndSet) {
          value.Intersect(*b);
        } else {
          value.Union(*b);
        }
        break;
      }
      case OpKind::kBoolToSet: {
        TREEWALK_ASSIGN_OR_RETURN(bool b, Bool(op.a));
        value = b ? NodeSet::Full(n_) : NodeSet(n_);
        break;
      }
      case OpKind::kAnyRow:
      case OpKind::kAllRow: {
        value = NodeSet(n_);
        if (rows != nullptr) {
          TREEWALK_RETURN_IF_ERROR(Reduce(op, *rows, value));
          break;
        }
        std::vector<NodeId> chunk;
        for (std::size_t lo = 0; lo < n_; lo += kChunkRows) {
          chunk.resize(std::min(kChunkRows, n_ - lo));
          std::iota(chunk.begin(), chunk.end(), static_cast<NodeId>(lo));
          TREEWALK_RETURN_IF_ERROR(Reduce(op, chunk, value));
        }
        break;
      }
      default:
        return Internal("seeded evaluation: op is not set-shaped");
    }
    if (rows == nullptr) {
      sel_.whole_sets_[idx] = std::make_shared<const NodeSet>(std::move(value));
      return sel_.whole_sets_[idx].get();
    }
    partial_.push_back(std::move(value));
    return &partial_.back();
  }

  /// Op `i` (Bool-shaped); closed, so memoized on first use.
  Result<bool> Bool(int i) {
    const std::size_t idx = static_cast<std::size_t>(i);
    if (sel_.bools_[idx] >= 0) return sel_.bools_[idx] != 0;
    const Op& op = ops_[idx];
    bool value = false;
    switch (op.kind) {
      case OpKind::kConstBool:
        value = op.literal;
        break;
      case OpKind::kNotBool: {
        TREEWALK_ASSIGN_OR_RETURN(bool a, Bool(op.a));
        value = !a;
        break;
      }
      case OpKind::kAndBool:
      case OpKind::kOrBool: {
        TREEWALK_ASSIGN_OR_RETURN(bool a, Bool(op.a));
        TREEWALK_ASSIGN_OR_RETURN(bool b, Bool(op.b));
        value = op.kind == OpKind::kAndBool ? a && b : a || b;
        break;
      }
      case OpKind::kAnySet:
      case OpKind::kAllSet: {
        TREEWALK_ASSIGN_OR_RETURN(const NodeSet* s, Set(op.a, nullptr));
        value = op.kind == OpKind::kAnySet ? s->any() : s->all();
        break;
      }
      default:
        return Internal("seeded evaluation: op is not Bool-shaped");
    }
    sel_.bools_[idx] = value ? 1 : 0;
    return value;
  }

 private:
  /// Op `i` read in orientation `transposed` broadcasts a whole set
  /// along its columns (every row is the set); transposition swaps the
  /// two broadcasts.
  bool ColumnBroadcast(int i, bool transposed) const {
    const OpKind kind = ops_[static_cast<std::size_t>(i)].kind;
    return transposed ? kind == OpKind::kSetToMatRow
                      : kind == OpKind::kSetToMatCol;
  }

  /// Runs of set bits in `s`, the whole value of set op `i`, memoized.
  std::size_t SetRuns(int i, const NodeSet& s) {
    std::int64_t& runs = sel_.set_runs_[static_cast<std::size_t>(i)];
    if (runs < 0) {
      runs = static_cast<std::int64_t>(
          CountSetRuns(s, 0, static_cast<NodeId>(n_)));
    }
    return static_cast<std::size_t>(runs);
  }

  /// Span image of set op `i` (demanded whole), memoized: the shared row
  /// of a column broadcast.
  Result<const std::vector<NodeSpan>*> Image(int i) {
    const std::size_t idx = static_cast<std::size_t>(i);
    if (sel_.images_[idx] == nullptr) {
      TREEWALK_ASSIGN_OR_RETURN(const NodeSet* s, Set(i, nullptr));
      const NodeId n = static_cast<NodeId>(n_);
      const std::size_t runs = CountSetRuns(*s, 0, n);
      TREEWALK_RETURN_IF_ERROR(sel_.retained_->Add(
          static_cast<std::int64_t>(runs * sizeof(NodeSpan) + 48)));
      std::vector<NodeSpan> image;
      image.reserve(runs);
      AppendSetRuns(*s, 0, n, image);
      sel_.images_[idx] =
          std::make_shared<const std::vector<NodeSpan>>(std::move(image));
    }
    return sel_.images_[idx].get();
  }

  /// Sets bit u of `value` for each u in `rows` whose row of the
  /// kAnyRow/kAllRow operand is nonempty / full.
  Status Reduce(const Op& op, const std::vector<NodeId>& rows,
                NodeSet& value) {
    RowBatch m(governor_);
    TREEWALK_RETURN_IF_ERROR(Rows(op.a, /*transposed=*/false, rows, m));
    const NodeSpan full{0, static_cast<NodeId>(n_)};
    for (std::size_t k = 0; k < rows.size(); ++k) {
      std::span<const NodeSpan> row = m.Row(k);
      const bool hit = op.kind == OpKind::kAnyRow
                           ? !row.empty()
                           : row.size() == 1 && row[0] == full;
      if (hit) value.set(rows[k]);
    }
    return Status::Ok();
  }

  /// R[u][v] = exists w P[u][w] & Q[v][w] & C[w], at rows `rows`.
  /// Transposed, R^T = Compose(Q, P, C): the operands swap roles.  Each
  /// scratch array is counted, then charged, then allocated.
  Status Compose(const Op& op, bool transposed,
                 const std::vector<NodeId>& rows, RowBatch& out) {
    const int first = transposed ? op.b : op.a;
    const int second = transposed ? op.a : op.b;
    RowBatch p(governor_);
    TREEWALK_RETURN_IF_ERROR(Rows(first, false, rows, p));
    const NodeSet* guard = nullptr;
    if (op.c >= 0) {
      TREEWALK_ASSIGN_OR_RETURN(guard, Set(op.c, nullptr));
    }
    // The semijoin: each row's joined members, and their union W.
    std::size_t count = 0;
    for (std::size_t k = 0; k < rows.size(); ++k) {
      for (const NodeSpan& s : p.Row(k)) {
        count += guard == nullptr ? static_cast<std::size_t>(s.end - s.begin)
                                  : CountBits(*guard, s.begin, s.end);
      }
    }
    ScopedMemoryCharge scratch(governor_, MemoryCategory::kCompiledOps);
    TREEWALK_RETURN_IF_ERROR(scratch.Add(static_cast<std::int64_t>(
        count * sizeof(NodeId) + (rows.size() + 1) * sizeof(std::size_t))));
    std::vector<NodeId> members;
    members.reserve(count);
    std::vector<std::size_t> member_start;
    member_start.reserve(rows.size() + 1);
    member_start.push_back(0);
    for (std::size_t k = 0; k < rows.size(); ++k) {
      for (const NodeSpan& s : p.Row(k)) {
        for (NodeId w = s.begin; w < s.end; ++w) {
          if (guard == nullptr || guard->test(w)) members.push_back(w);
        }
      }
      member_start.push_back(members.size());
    }
    RowBatch q(governor_);
    if (rows.size() == 1) {
      // One demanded row, the common case: its members are W itself and
      // the row is the union of every Q^T row fetched — or, when Q is an
      // axis atom, W's image under it, navigated once per node.
      const Op& q_op = ops_[static_cast<std::size_t>(second)];
      if (q_op.kind == OpKind::kLoadMat && q_op.axis != Axis::kNone) {
        TREEWALK_RETURN_IF_ERROR(
            AxisImage(q_op.axis, !q_op.transposed, members, out));
        out.EndRow();
        return Status::Ok();
      }
      TREEWALK_RETURN_IF_ERROR(Rows(second, true, members, q));
      if (q.shared()) {
        if (!members.empty()) {
          std::span<const NodeSpan> image = q.Row(0);
          TREEWALK_RETURN_IF_ERROR(out.Reserve(image.size()));
          out.spans().insert(out.spans().end(), image.begin(), image.end());
        }
      } else {
        TREEWALK_RETURN_IF_ERROR(out.Reserve(q.spans().size()));
        TREEWALK_RETURN_IF_ERROR(UnionOf(q.spans(), out.spans()));
      }
      out.EndRow();
      return Status::Ok();
    }
    TREEWALK_RETURN_IF_ERROR(
        scratch.Add(static_cast<std::int64_t>(count * sizeof(NodeId))));
    std::vector<NodeId> joined = members;
    std::sort(joined.begin(), joined.end());
    joined.erase(std::unique(joined.begin(), joined.end()), joined.end());
    TREEWALK_RETURN_IF_ERROR(Rows(second, true, joined, q));
    // From here on a member is its position in `joined`, q's row index.
    for (NodeId& m : members) {
      m = static_cast<NodeId>(
          std::lower_bound(joined.begin(), joined.end(), m) - joined.begin());
    }
    std::vector<NodeSpan> gathered;
    for (std::size_t k = 0; k < rows.size(); ++k) {
      std::size_t spans = 0;
      for (std::size_t m = member_start[k]; m < member_start[k + 1]; ++m) {
        spans += q.Row(static_cast<std::size_t>(members[m])).size();
      }
      if (spans > gathered.capacity()) {
        TREEWALK_RETURN_IF_ERROR(scratch.Add(static_cast<std::int64_t>(
            (spans - gathered.capacity()) * sizeof(NodeSpan))));
        gathered.reserve(spans);
      }
      gathered.clear();
      for (std::size_t m = member_start[k]; m < member_start[k + 1]; ++m) {
        std::span<const NodeSpan> row =
            q.Row(static_cast<std::size_t>(members[m]));
        gathered.insert(gathered.end(), row.begin(), row.end());
      }
      TREEWALK_RETURN_IF_ERROR(out.Reserve(gathered.size()));
      TREEWALK_RETURN_IF_ERROR(UnionOf(gathered, out.spans()));
      out.EndRow();
    }
    return Status::Ok();
  }

  /// Appends to `out` the union of the rows of `members` (ascending) in
  /// an axis relation (or, `transposed`, its transpose): the nodes they
  /// reach, each navigated to once, so O(|members| + |image| + n/64)
  /// where the union of the rows could hold |members| times more spans
  /// (the ancestors of every node of a deep subtree).  A walk that meets
  /// a marked ancestor or sibling stops there: everything beyond it was
  /// marked by the walk that marked it.
  Status AxisImage(Axis axis, bool transposed,
                   const std::vector<NodeId>& members, RowBatch& out) {
    const Tree& t = *sel_.tree_;
    ScopedMemoryCharge bitmap(governor_, MemoryCategory::kCompiledOps);
    TREEWALK_RETURN_IF_ERROR(bitmap.Add(SetBytes(n_)));
    NodeSet image(n_);
    auto walk = [&](NodeId v, NodeId (Tree::*step)(NodeId) const) {
      for (; v != kNoNode && !image.test(v); v = (t.*step)(v)) image.set(v);
    };
    for (NodeId w : members) {
      switch (axis) {
        case Axis::kEdge:
          if (transposed) {
            if (t.Parent(w) != kNoNode) image.set(t.Parent(w));
          } else {
            for (NodeId c = t.FirstChild(w); c != kNoNode;
                 c = t.NextSibling(c)) {
              image.set(c);
            }
          }
          break;
        case Axis::kDescendant:
          if (transposed) {
            walk(t.Parent(w), &Tree::Parent);
          } else if (!image.test(w)) {
            // An earlier member's subtree already holds w's.
            image.SetRange(w + 1, t.SubtreeEnd(w));
          }
          break;
        case Axis::kSibling:
          walk(transposed ? t.PrevSibling(w) : t.NextSibling(w),
               transposed ? &Tree::PrevSibling : &Tree::NextSibling);
          break;
        case Axis::kSucc: {
          const NodeId s = transposed ? t.PrevSibling(w) : t.NextSibling(w);
          if (s != kNoNode) image.set(s);
          break;
        }
        case Axis::kIdentity:
          image.set(w);
          break;
        case Axis::kNone:
          break;
      }
    }
    const NodeId n = static_cast<NodeId>(n_);
    TREEWALK_RETURN_IF_ERROR(out.Reserve(CountSetRuns(image, 0, n)));
    AppendSetRuns(image, 0, n, out.spans());
    return Status::Ok();
  }

  /// Appends the normalized union of `spans` (any order; reordered in
  /// place) to `out`, which has room for spans.size() more.
  Status UnionOf(std::vector<NodeSpan>& spans, std::vector<NodeSpan>& out) {
    if (spans.size() <= n_ / 64) {
      MergeUnsorted(spans, out);
      return Status::Ok();
    }
    // Many spans: a bitmap union is linear where sorting is not.
    ScopedMemoryCharge bitmap(governor_, MemoryCategory::kCompiledOps);
    TREEWALK_RETURN_IF_ERROR(bitmap.Add(SetBytes(n_)));
    NodeSet covered(n_);
    for (const NodeSpan& span : spans) covered.SetRange(span.begin, span.end);
    AppendSetRuns(covered, 0, static_cast<NodeId>(n_), out);
    return Status::Ok();
  }

  SeededSelector& sel_;
  const std::vector<Op>& ops_;
  std::size_t n_;
  ResourceGovernor* governor_;
  ScopedMemoryCharge transient_;
  /// Partially demanded sets of this evaluation (stable addresses).
  std::deque<NodeSet> partial_;
};

SeededSelector::SeededSelector() = default;
SeededSelector::SeededSelector(SeededSelector&&) noexcept = default;
SeededSelector& SeededSelector::operator=(SeededSelector&&) noexcept = default;
SeededSelector::~SeededSelector() = default;

Result<const IntervalMatrix*> SeededSelector::Oriented(const Op& op,
                                                       bool transposed) {
  if (op.transposed == transposed) return op.imat.get();
  std::unique_ptr<const IntervalMatrix>& slot = transposes_[op.imat.get()];
  if (slot == nullptr) {
    TREEWALK_ASSIGN_OR_RETURN(
        IntervalMatrix t,
        IntervalMatrix::Transposed(*op.imat,
                                   governor_ != nullptr ? retained_.get()
                                                        : nullptr));
    slot = std::make_unique<const IntervalMatrix>(std::move(t));
  }
  return slot.get();
}

Result<const std::vector<NodeId>*> SeededSelector::ChainTops() {
  if (chain_top_.empty() && n_ > 0) {
    TREEWALK_RETURN_IF_ERROR(
        retained_->Add(static_cast<std::int64_t>(n_ * sizeof(NodeId))));
    chain_top_.resize(n_);
    for (NodeId v = 0; v < static_cast<NodeId>(n_); ++v) {
      chain_top_[static_cast<std::size_t>(v)] =
          v > 0 && tree_->Parent(v) == v - 1
              ? chain_top_[static_cast<std::size_t>(v - 1)]
              : v;
    }
  }
  return &chain_top_;
}

Result<std::vector<NodeId>> SeededSelector::SelectFrom(NodeId origin) {
  assert(origin >= 0 && origin < static_cast<NodeId>(n_));
  SeededEvaluation eval(*this);
  auto all = [this] {
    std::vector<NodeId> nodes(n_);
    std::iota(nodes.begin(), nodes.end(), NodeId{0});
    return nodes;
  };
  switch (shape_) {
    case Shape::kBool: {
      TREEWALK_ASSIGN_OR_RETURN(bool b, eval.Bool(root_));
      return b ? all() : std::vector<NodeId>{};
    }
    case Shape::kSetX: {
      // phi mentions only x: every y qualifies iff phi(origin) holds.
      const std::vector<NodeId> rows = {origin};
      TREEWALK_ASSIGN_OR_RETURN(const NodeSet* s, eval.Set(root_, &rows));
      return s->test(origin) ? all() : std::vector<NodeId>{};
    }
    case Shape::kSetY: {
      TREEWALK_ASSIGN_OR_RETURN(const NodeSet* s, eval.Set(root_, nullptr));
      return s->ToVector();
    }
    case Shape::kMat:
      break;
  }
  const std::vector<NodeId> rows = {origin};
  RowBatch row(governor_);
  TREEWALK_RETURN_IF_ERROR(eval.Rows(root_, /*transposed=*/false, rows, row));
  std::vector<NodeId> out;
  for (const NodeSpan& s : row.Row(0)) {
    for (NodeId v = s.begin; v < s.end; ++v) out.push_back(v);
  }
  return out;
}

}  // namespace treewalk
