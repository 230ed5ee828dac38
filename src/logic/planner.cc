#include "src/logic/planner.h"

#include <algorithm>
#include <cmath>
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

}  // namespace

FormulaFeatures AnalyzeFormula(const Formula& f) {
  FormulaFeatures feat;
  if (!f.valid()) return feat;
  FeatureWalk{&feat}.Walk(f, 0, 0);
  return feat;
}

SelectorPlan PlanSelector(const TreeStats& stats, const Formula& selector) {
  SelectorPlan plan;
  if (!selector.valid() || stats.nodes <= 0) return plan;
  plan.strategy = PlanStrategy::kCompiledInterval;
  plan.features = AnalyzeFormula(selector);
  Estimate(selector, stats, 0, &plan.operators);
  plan.estimated_rows = plan.operators[0].rows;
  return plan;
}

}  // namespace treewalk
