#include "src/logic/planner.h"

#include <algorithm>
#include <cmath>
#include <set>
#include <string>
#include <vector>

namespace treewalk {
namespace {

/// Selectivity estimate for one subformula: the fraction of assignments
/// (over its free variables) that satisfy it.
struct Est {
  double selectivity = 0.0;
  int free_vars = 0;
  bool exact = false;
};

double Clamp01(double s) { return std::min(1.0, std::max(0.0, s)); }

/// Average per-label population when the planner only has aggregate
/// stats (TreeStats carries counts by Symbol, not by name, so a label
/// atom is estimated at the mean label frequency rather than resolved
/// exactly; docs/PLANNER.md discusses the trade).
double AvgLabelCount(const TreeStats& stats) {
  if (stats.label_counts.empty()) return static_cast<double>(stats.nodes);
  return static_cast<double>(stats.nodes) /
         static_cast<double>(stats.label_counts.size());
}

double AvgAttrDistinct(const TreeStats& stats) {
  if (stats.attr_distinct.empty()) return 1.0;
  double total = 0.0;
  for (std::int64_t d : stats.attr_distinct) {
    total += static_cast<double>(std::max<std::int64_t>(d, 1));
  }
  return total / static_cast<double>(stats.attr_distinct.size());
}

/// Short operator label for the explain rendering: atoms print in full
/// (they are short), connectives print their kind plus the quantified
/// variable where there is one.
std::string OpLabel(const Formula& f) {
  const FormulaNode& node = f.node();
  switch (node.kind) {
    case FormulaKind::kTrue:
      return "true";
    case FormulaKind::kFalse:
      return "false";
    case FormulaKind::kNot:
      return "not";
    case FormulaKind::kAnd:
      return "and";
    case FormulaKind::kOr:
      return "or";
    case FormulaKind::kImplies:
      return "implies";
    case FormulaKind::kIff:
      return "iff";
    case FormulaKind::kExists:
      return "exists " + node.var;
    case FormulaKind::kForall:
      return "forall " + node.var;
    case FormulaKind::kAtom:
      return f.ToString();
  }
  return "?";
}

Est EstimateAtom(const FormulaNode& node, const TreeStats& stats) {
  const double n = static_cast<double>(stats.nodes);
  const double pairs = n * n;
  Est est;
  est.exact = true;
  switch (node.atom) {
    case AtomKind::kEdge:
      est.selectivity = static_cast<double>(stats.edges) / pairs;
      break;
    case AtomKind::kDescendant:
      est.selectivity = static_cast<double>(stats.sum_depths) / pairs;
      break;
    case AtomKind::kSibling:
      est.selectivity = static_cast<double>(stats.sib_pairs) / pairs;
      break;
    case AtomKind::kSucc:
      est.selectivity = static_cast<double>(stats.succ_pairs) / pairs;
      break;
    case AtomKind::kLabel:
      est.selectivity = AvgLabelCount(stats) / n;
      est.exact = false;  // aggregate, not per-name
      break;
    case AtomKind::kRoot:
      est.selectivity = 1.0 / n;
      break;
    case AtomKind::kLeaf:
      est.selectivity = static_cast<double>(stats.leaves) / n;
      break;
    case AtomKind::kFirst:
    case AtomKind::kLast:
      // Every internal node has exactly one first and one last child.
      est.selectivity = static_cast<double>(stats.parents) / n;
      break;
    case AtomKind::kEq: {
      const bool node_eq =
          node.terms.size() == 2 && !node.terms[0].IsData() &&
          !node.terms[1].IsData();
      if (node_eq) {
        est.selectivity = 1.0 / n;  // the diagonal of Dom^2
      } else {
        // Data equality under a uniform-values assumption: one value
        // out of the average distinct-count per column.
        est.selectivity = 1.0 / AvgAttrDistinct(stats);
        est.exact = false;
      }
      break;
    }
    case AtomKind::kRelation:
      est.selectivity = 0.5;  // store contents are invisible to stats
      est.exact = false;
      break;
  }
  est.selectivity = Clamp01(est.selectivity);
  return est;
}

/// Recursive cardinality estimator.  Exact at the tree-axis atom leaves
/// (TreeStats holds their closed-form counts); independence-style
/// algebra above.  Appends one OperatorEstimate per subformula in
/// pre-order.
Est Estimate(const Formula& f, const TreeStats& stats, int depth,
             std::vector<OperatorEstimate>* out) {
  const FormulaNode& node = f.node();
  const double n = static_cast<double>(stats.nodes);
  const std::size_t slot = out->size();
  out->push_back(OperatorEstimate{OpLabel(f), depth, 0.0, 0.0, false});

  Est est;
  est.free_vars = static_cast<int>(f.FreeVariables().size());
  switch (node.kind) {
    case FormulaKind::kTrue:
      est.selectivity = 1.0;
      est.exact = true;
      break;
    case FormulaKind::kFalse:
      est.selectivity = 0.0;
      est.exact = true;
      break;
    case FormulaKind::kAtom:
      est = EstimateAtom(node, stats);
      est.free_vars = static_cast<int>(f.FreeVariables().size());
      break;
    case FormulaKind::kNot: {
      const Est a = Estimate(node.children[0], stats, depth + 1, out);
      est.selectivity = 1.0 - a.selectivity;
      break;
    }
    case FormulaKind::kAnd: {
      const Est a = Estimate(node.children[0], stats, depth + 1, out);
      const Est b = Estimate(node.children[1], stats, depth + 1, out);
      est.selectivity = a.selectivity * b.selectivity;
      break;
    }
    case FormulaKind::kOr: {
      const Est a = Estimate(node.children[0], stats, depth + 1, out);
      const Est b = Estimate(node.children[1], stats, depth + 1, out);
      est.selectivity =
          a.selectivity + b.selectivity - a.selectivity * b.selectivity;
      break;
    }
    case FormulaKind::kImplies: {
      const Est a = Estimate(node.children[0], stats, depth + 1, out);
      const Est b = Estimate(node.children[1], stats, depth + 1, out);
      est.selectivity = 1.0 - a.selectivity * (1.0 - b.selectivity);
      break;
    }
    case FormulaKind::kIff: {
      const Est a = Estimate(node.children[0], stats, depth + 1, out);
      const Est b = Estimate(node.children[1], stats, depth + 1, out);
      est.selectivity = a.selectivity * b.selectivity +
                        (1.0 - a.selectivity) * (1.0 - b.selectivity);
      break;
    }
    case FormulaKind::kExists:
    case FormulaKind::kForall: {
      const Est body = Estimate(node.children[0], stats, depth + 1, out);
      // Independence across the n candidate witnesses: exists succeeds
      // unless all n fail; forall needs all n to succeed.  log1p keeps
      // (1 - s)^n stable for tiny s and large n.
      const double s = Clamp01(body.selectivity);
      if (n <= 0) {
        est.selectivity = node.kind == FormulaKind::kForall ? 1.0 : 0.0;
      } else if (node.kind == FormulaKind::kExists) {
        est.selectivity = -std::expm1(n * std::log1p(-std::min(s, 1.0 - 1e-12)));
      } else {
        est.selectivity = std::exp(n * std::log(std::max(s, 1e-12)));
      }
      break;
    }
  }
  est.selectivity = Clamp01(est.selectivity);

  OperatorEstimate& slot_ref = (*out)[slot];
  const double domain = std::pow(std::max(n, 1.0), est.free_vars);
  slot_ref.selectivity = est.selectivity;
  slot_ref.rows = est.selectivity * domain;
  slot_ref.exact = est.exact;
  return est;
}

struct FeatureWalk {
  FormulaFeatures* feat;
  void Walk(const Formula& f, int q_depth, int neg_depth) {
    const FormulaNode& node = f.node();
    ++feat->size;
    feat->width = std::max(
        feat->width, static_cast<int>(f.FreeVariables().size()));
    switch (node.kind) {
      case FormulaKind::kTrue:
      case FormulaKind::kFalse:
        break;
      case FormulaKind::kAtom:
        ++feat->atoms;
        switch (node.atom) {
          case AtomKind::kEdge:
            ++feat->edge_atoms;
            break;
          case AtomKind::kDescendant:
            ++feat->desc_atoms;
            break;
          case AtomKind::kSibling:
            ++feat->sib_atoms;
            break;
          case AtomKind::kSucc:
            ++feat->succ_atoms;
            break;
          case AtomKind::kLabel:
            ++feat->label_atoms;
            break;
          case AtomKind::kRoot:
          case AtomKind::kLeaf:
          case AtomKind::kFirst:
          case AtomKind::kLast:
            ++feat->unary_atoms;
            break;
          case AtomKind::kEq: {
            const bool node_eq = node.terms.size() == 2 &&
                                 !node.terms[0].IsData() &&
                                 !node.terms[1].IsData();
            if (node_eq) {
              ++feat->node_eq_atoms;
            } else {
              ++feat->data_atoms;
            }
            break;
          }
          case AtomKind::kRelation:
            break;
        }
        break;
      case FormulaKind::kNot:
        feat->negation_depth = std::max(feat->negation_depth, neg_depth + 1);
        Walk(node.children[0], q_depth, neg_depth + 1);
        return;
      case FormulaKind::kAnd:
      case FormulaKind::kOr:
      case FormulaKind::kImplies:
      case FormulaKind::kIff:
        if (node.kind == FormulaKind::kOr) ++feat->or_count;
        if (node.kind == FormulaKind::kImplies) ++feat->implies_count;
        if (node.kind == FormulaKind::kIff) ++feat->iff_count;
        Walk(node.children[0], q_depth, neg_depth);
        Walk(node.children[1], q_depth, neg_depth);
        return;
      case FormulaKind::kExists:
      case FormulaKind::kForall:
        ++feat->quantifiers;
        if (node.kind == FormulaKind::kExists) {
          ++feat->exists_count;
        } else {
          ++feat->forall_count;
        }
        feat->quantifier_depth = std::max(feat->quantifier_depth, q_depth + 1);
        Walk(node.children[0], q_depth + 1, neg_depth);
        return;
    }
  }
};

/// True if the top-level structure (through the outer existential block
/// and positive conjunctions) contains a desc or E atom — the shape the
/// reference evaluator's range planner turns into subtree/children
/// enumeration instead of a whole-tree scan.
bool HasRangeGuard(const Formula& f) {
  const FormulaNode& node = f.node();
  switch (node.kind) {
    case FormulaKind::kExists:
      return HasRangeGuard(node.children[0]);
    case FormulaKind::kAnd:
      return HasRangeGuard(node.children[0]) ||
             HasRangeGuard(node.children[1]);
    case FormulaKind::kAtom:
      return node.atom == AtomKind::kDescendant ||
             node.atom == AtomKind::kEdge;
    default:
      return false;
  }
}

}  // namespace

const char* PlanStrategyName(PlanStrategy s) {
  switch (s) {
    case PlanStrategy::kReference:
      return "reference";
    case PlanStrategy::kCompiledInterval:
      return "compiled-interval";
  }
  return "?";
}

FormulaFeatures AnalyzeFormula(const Formula& f) {
  FormulaFeatures feat;
  if (!f.valid()) return feat;
  FeatureWalk{&feat}.Walk(f, 0, 0);
  feat.has_range_guard = HasRangeGuard(f);
  return feat;
}

SelectorPlan PlanSelector(const TreeStats& stats, const Formula& selector,
                          const PlannerCalibration& cal,
                          const PlanOptions& opts) {
  SelectorPlan plan;
  if (!selector.valid() || stats.nodes <= 0) {
    plan.strategy = PlanStrategy::kReference;
    return plan;
  }
  plan.features = AnalyzeFormula(selector);
  const FormulaFeatures& feat = plan.features;

  const double n = static_cast<double>(stats.nodes);
  const double ops = std::max(1, feat.size);
  const double atoms = std::max(1, feat.atoms);
  const double origins =
      opts.expected_origins >= 0.0 ? std::max(1.0, opts.expected_origins) : n;

  const Est whole =
      Estimate(selector, stats, 0, &plan.operators);
  plan.estimated_rows = plan.operators.empty() ? 0.0 : plan.operators[0].rows;
  (void)whole;

  // --- Reference: per-origin recursive search. ----------------------
  // Each origin enumerates candidate y (the full tree, or the guard's
  // average match count when the range planner applies) and pays the n
  // candidates of every quantifier on top.
  double effective_y = n;
  if (feat.has_range_guard) {
    // desc guards bound y to the origin's subtree (avg = sum_depths/n
    // matches per origin); E guards to its children (avg fanout).  Use
    // whichever guard shape is present, preferring the tighter E.
    const double avg_desc = static_cast<double>(stats.sum_depths) / n;
    const double avg_edge = static_cast<double>(stats.edges) / n;
    effective_y =
        std::max(1.0, feat.edge_atoms > 0 ? avg_edge : avg_desc);
  }
  plan.cost_reference = cal.reference_visit_cost * origins * atoms *
                        effective_y * std::pow(n, feat.quantifiers);

  // --- Compiled: priced as building the satisfier DAG once, then one
  // row read per origin.  Rows start at one span for every tau axis;
  // each disjunction can only widen them.  A compiled pick is run
  // seeded from each origin instead (src/logic/planned_selector.h;
  // EXPERIMENTS.md E23 measures the two). ----------------------------
  const double spans = 1.0 + static_cast<double>(feat.or_count);
  plan.cost_interval =
      cal.interval_span_cost * (ops * n * spans + origins * spans) +
      cal.compile_op_cost * ops;

  // Deterministic: an exact tie goes to the reference evaluator.
  plan.strategy = plan.cost_interval < plan.cost_reference
                      ? PlanStrategy::kCompiledInterval
                      : PlanStrategy::kReference;
  return plan;
}

PlannerCalibration RecalibrateFromMeasurements(
    const PlannerCalibration& base, const SelectorPlan& plan,
    const std::vector<StrategyMeasurement>& measured) {
  PlannerCalibration out = base;
  for (const StrategyMeasurement& m : measured) {
    if (m.nanos <= 0.0) continue;
    double predicted = 0.0;
    double* constant = nullptr;
    switch (m.strategy) {
      case PlanStrategy::kReference:
        predicted = plan.cost_reference;
        constant = &out.reference_visit_cost;
        break;
      case PlanStrategy::kCompiledInterval:
        predicted = plan.cost_interval;
        constant = &out.interval_span_cost;
        break;
    }
    if (constant == nullptr || predicted <= 0.0) continue;
    // Geometric half-step toward measured/predicted: repeated runs
    // converge on constants in nanoseconds-per-unit without
    // oscillating on a single noisy sample.
    *constant *= std::sqrt(m.nanos / predicted);
  }
  return out;
}

}  // namespace treewalk
