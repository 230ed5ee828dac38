#ifndef TREEWALK_TREE_INTERVAL_MATRIX_H_
#define TREEWALK_TREE_INTERVAL_MATRIX_H_

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "src/common/governor.h"
#include "src/common/result.h"
#include "src/tree/axis_index.h"
#include "src/tree/tree.h"

namespace treewalk {

/// Half-open run of pre-order node ids.
struct NodeSpan {
  NodeId begin = 0;
  NodeId end = 0;  ///< exclusive
  friend bool operator==(const NodeSpan&, const NodeSpan&) = default;
};

/// Span-list algebra over normalized lists (sorted, disjoint,
/// non-adjacent spans): the row algebra behind IntervalMatrix, shared
/// with the row-at-a-time seeded evaluator (src/logic/bitset_eval.h).
/// Each appends its normalized result to `out`, which must not alias
/// an input.
///
/// out = [0, n) minus a.
void SpanComplement(std::span<const NodeSpan> a, NodeId n,
                    std::vector<NodeSpan>& out);
/// out = a ∩ b in O(min·log max + |out|).
void SpanIntersect(std::span<const NodeSpan> a, std::span<const NodeSpan> b,
                   std::vector<NodeSpan>& out);
/// out = a ∪ b by a linear merge.
void SpanUnion(std::span<const NodeSpan> a, std::span<const NodeSpan> b,
               std::vector<NodeSpan>& out);

/// Interval-encoded binary relation over Dom(t) x Dom(t): row u is a
/// sorted list of disjoint, non-adjacent pre-order spans instead of an
/// n-bit row.  Because the arena stores nodes in pre-order, the axis
/// relations of the tau vocabulary compress to O(n) total spans —
/// desc(u) is the single range (u, SubtreeEnd(u)), succ(u) a point,
/// sib(u) a suffix of the parent's child runs — so a relation that
/// costs n^2/8 bytes as an n-bit-per-row bitset costs O(n) bytes here.
///
/// Representation: a CSR-style layout of shared span pools.  Each row
/// descriptor names a pool slice plus
///
///   - a clip window [clip_begin, clip_end): the slice is intersected
///     with the window on read, so "row ∧ single span" is O(log) and
///     allocates nothing (rows alias the operand's pool);
///   - a complement flag: the row is Dom(t) minus the clipped slice,
///     so negation flips a bit per row and shares every pool.
///
/// Pools are immutable and shared (shared_ptr), which is what makes
/// broadcast rows (every row = one set), transpose snapshots (runs of
/// columns share one active-set image), and clip aliases O(1) space
/// per row.  All logical row contents are produced in normalized form
/// (sorted, disjoint, non-adjacent spans).
///
/// The algebra below is what the compiled evaluator
/// (src/logic/bitset_eval.h) needs from a binary relation; operations
/// that can grow data-dependent pools take an optional
/// ScopedMemoryCharge and charge it in chunks *before* growing.  A null
/// charge never fails.
class IntervalMatrix {
 public:
  struct Row {
    std::uint32_t pool = 0;
    std::uint32_t offset = 0;
    std::uint32_t count = 0;
    NodeId clip_begin = 0;
    NodeId clip_end = 0;
    bool complemented = false;
  };

  IntervalMatrix() = default;
  /// All rows empty over a domain of `n` nodes.
  explicit IntervalMatrix(std::size_t n);

  std::size_t size() const { return n_; }

  bool test(NodeId u, NodeId v) const;
  /// Logical spans of row u: clip and complement applied, normalized.
  std::vector<NodeSpan> RowSpans(NodeId u) const;
  /// Number of set bits in row u; O(spans).
  std::int64_t RowWidth(NodeId u) const;
  /// Row u as a dense bitset / as sorted node ids.
  NodeSet RowSet(NodeId u) const;
  std::vector<NodeId> RowVector(NodeId u) const;
  /// Appends row u's logical spans to `out` (RowSpans without the
  /// per-call allocation; hot in Compose/Transposed and in seeded row
  /// reads).
  void AppendLogicalRow(NodeId u, std::vector<NodeSpan>& out) const;
  /// At least the number of spans AppendLogicalRow(u, ...) appends; O(1).
  std::size_t RowSpanBound(NodeId u) const {
    const Row& r = rows_[static_cast<std::size_t>(u)];
    return r.count + (r.complemented ? 1 : 0);
  }

  /// {u : exists v R(u, v)} / {u : forall v R(u, v)}; O(total spans).
  NodeSet AnyPerRow() const;
  NodeSet AllPerRow() const;

  /// Sum of logical row widths; the "member count" compose orientation
  /// is chosen by.
  std::int64_t TotalWidth() const;
  /// Stored spans across all pools (shared pools counted once).
  std::size_t StoredSpans() const;
  /// Approximate heap footprint: row descriptors plus pools.  Pools
  /// shared with another matrix are counted in full here too — the
  /// accounting is deliberately conservative per holder.
  std::int64_t ApproxBytes() const;

  /// Complement of every row: O(n), shares all pools with `a`.
  static IntervalMatrix Not(const IntervalMatrix& a);
  /// Row-wise intersection / union.  Cost per row is
  /// O(min log max + output) via clip-aliasing and small-side-driven
  /// merges; identical operand row pairs are computed once.
  static Result<IntervalMatrix> And(const IntervalMatrix& a,
                                    const IntervalMatrix& b,
                                    ScopedMemoryCharge* charge);
  static Result<IntervalMatrix> Or(const IntervalMatrix& a,
                                   const IntervalMatrix& b,
                                   ScopedMemoryCharge* charge);
  /// T[v][u] = M[u][v], by a column sweep over span events; runs of
  /// columns between events alias one snapshot slice.
  static Result<IntervalMatrix> Transposed(const IntervalMatrix& a,
                                           ScopedMemoryCharge* charge);
  /// R[u][v] = exists w: P[u][w] & Q[v][w] & (guard == nullptr ||
  /// guard[w]).  Evaluated as R_u = union of Q^T rows over the members
  /// of P_u, iterating whichever operand has the smaller total width
  /// and transposing the result back if the roles were swapped;
  /// repeated P rows are computed once.
  static Result<IntervalMatrix> Compose(const IntervalMatrix& p,
                                        const IntervalMatrix& q,
                                        const NodeSet* guard,
                                        ScopedMemoryCharge* charge);

  /// M[u][v] = s[u]: rows are full or empty; one shared 1-span pool.
  static IntervalMatrix RowBroadcast(const NodeSet& s);
  /// M[u][v] = s[v]: every row aliases one shared image of `s`.
  static Result<IntervalMatrix> ColBroadcast(const NodeSet& s,
                                             ScopedMemoryCharge* charge);

 private:
  friend class IntervalMatrixBuilder;
  // src/logic/selector_cache.cc: serializes pools once plus row
  // descriptors, so pool sharing survives a cache round trip.
  friend class SelectorCacheCodec;
  using Pool = std::vector<NodeSpan>;

  /// Shared body of And/Or (the four complement-flag cases are duals).
  static Result<IntervalMatrix> Combine(const IntervalMatrix& a,
                                        const IntervalMatrix& b,
                                        bool conjunction,
                                        ScopedMemoryCharge* charge);
  std::size_t n_ = 0;
  std::vector<Row> rows_;
  std::vector<std::shared_ptr<const Pool>> pools_;
};

/// Row-at-a-time construction of an IntervalMatrix with one owned pool.
/// Spans are added in ascending order per row (adjacent runs merge);
/// rows may be committed in any order, each at most once, and may alias
/// a previously committed row — verbatim or narrowed to a window, which
/// is how the sibling axis shares one span list per child family.
/// Pool growth is charged against `charge` in chunks before allocating;
/// with a null charge the builder never fails.
class IntervalMatrixBuilder {
 public:
  explicit IntervalMatrixBuilder(std::size_t n,
                                 ScopedMemoryCharge* charge = nullptr);

  std::size_t size() const { return n_; }

  /// Appends [begin, end) to the pending row; `begin` must be >= the
  /// pending row's last end.
  Status AddSpan(NodeId begin, NodeId end);
  /// Commits the pending spans as row u (complemented: row = Dom \ spans).
  Status CommitRow(NodeId u, bool complemented = false);
  /// Row u = committed row v (O(1), shares the slice).
  Status AliasRow(NodeId u, NodeId v);
  /// Row u = committed row v intersected with [begin, end).
  Status AliasRowWindow(NodeId u, NodeId v, NodeId begin, NodeId end);
  /// Narrows already-committed row u to [begin, end) in place; how the
  /// first child of a family sheds itself from the shared sibling-run
  /// list it anchors.
  Status ReclipRow(NodeId u, NodeId begin, NodeId end);

  Result<IntervalMatrix> Finish() &&;

 private:
  Status ChargeSpans(std::size_t additional);

  std::size_t n_;
  ScopedMemoryCharge* charge_;
  Status status_;
  std::vector<NodeSpan> pending_;
  std::vector<NodeSpan> pool_;
  std::size_t charged_spans_ = 0;
  IntervalMatrix out_;
  std::vector<bool> committed_;
};

}  // namespace treewalk

#endif  // TREEWALK_TREE_INTERVAL_MATRIX_H_
