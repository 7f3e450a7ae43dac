#include "index/index_planner.h"
#include "opt/properties.h"
#include "opt/rewriter.h"
#include "query/expr.h"

namespace xqp {
namespace opt_internal {

namespace {

/// Doc-order / duplicate-elimination elision on one path node. Assumes
/// Expr::props are fresh. Returns whether a flag changed.
bool ElideDdo(PathExpr* path, RuleContext* ctx) {
  const StepExpr* step = UnderlyingStep(path->child(1));
  if (step == nullptr) return false;
  bool fired = false;
  bool ordered = false;
  bool distinct = false;
  bool ntn = false;
  PathStructuralFlags(path->child(0)->props, step->axis, &ordered, &distinct,
                      &ntn);
  if (path->needs_sort && ordered) {
    // Residual duplicates (if any) are handled by the cheaper order-
    // preserving dedup, which needs_dedup controls.
    path->needs_sort = false;
    ctx->Count("ddo-elision-sort");
    fired = true;
  }
  if (path->needs_dedup && distinct) {
    path->needs_dedup = false;
    ctx->Count("ddo-elision-dedup");
    fired = true;
  }
  return fired;
}

/// True when evaluating `pred` as a predicate cannot depend on the context
/// position: its value is never a numeric atom (so the predicate is a pure
/// EBV test) and it does not call position()/last(). Such predicates
/// survive an axis change that renumbers the context sequence.
bool PredicateIsPositionFree(const Expr* pred) {
  if (!pred->props.analyzed) return false;  // Unknown: assume positional.
  if (pred->props.uses_position || pred->props.uses_last) return false;
  if (pred->props.nodes_only) return true;  // EBV of a node sequence.
  switch (pred->kind()) {
    case ExprKind::kComparison:
    case ExprKind::kLogical:
    case ExprKind::kQuantified:
    case ExprKind::kInstanceOf:
    case ExprKind::kCastableAs:
      return true;  // Always boolean-valued.
    default:
      return false;
  }
}

/// Collapses X/descendant-or-self::node()/child::T into X/descendant::T
/// (the "//" abbreviation undone into one step). Predicates on the child
/// step are kept only when provably position-free — positional predicates
/// count per parent and would change meaning. Cheaper to evaluate and
/// restores the precision the ddo lattice needs for $doc/a//b. Returns
/// whether it fired.
bool CollapseSlashSlash(ExprPtr& e, RuleContext* ctx) {
  auto* path = static_cast<PathExpr*>(e.get());
  StepExpr* rhs = nullptr;
  if (path->child(1)->kind() == ExprKind::kStep) {
    rhs = static_cast<StepExpr*>(path->child(1));
  } else if (path->child(1)->kind() == ExprKind::kFilter) {
    auto* filter = static_cast<FilterExpr*>(path->child(1));
    if (filter->child(0)->kind() != ExprKind::kStep) return false;
    for (size_t p = 1; p < filter->NumChildren(); ++p) {
      if (!PredicateIsPositionFree(filter->child(p))) return false;
    }
    rhs = static_cast<StepExpr*>(filter->child(0));
  } else {
    return false;
  }
  if (rhs->axis != Axis::kChild) return false;
  if (path->child(0)->kind() != ExprKind::kPath) return false;
  auto* lhs = static_cast<PathExpr*>(path->child(0));
  if (lhs->child(1)->kind() != ExprKind::kStep) return false;
  auto* dos = static_cast<StepExpr*>(lhs->child(1));
  if (dos->axis != Axis::kDescendantOrSelf ||
      dos->test.kind != NodeTest::Kind::kAnyKind) {
    return false;
  }
  rhs->axis = Axis::kDescendant;
  e->SetChild(0, lhs->TakeChild(0));
  ctx->Count("slash-slash-collapse");
  return true;
}

/// The path rules over the subtree at `e`, bottom-up. Returns whether a
/// rule reshaped the subtree or changed a path's sort/dedup flags. The walk
/// keeps every property it may read fresh without re-analyzing whole
/// subtrees: properties depend only on the subtree, so an untouched one
/// keeps what OptimizeFrame's AnalyzeExpr computed, and above a change the
/// walk refreshes one node at a time on its way up, each from children it
/// already refreshed. (Index marking is left out: analysis does not read
/// it.)
bool PathRulesWalk(ExprPtr& e, RuleContext* ctx) {
  bool changed = false;
  for (size_t i = 0; i < e->NumChildren(); ++i) {
    changed |= PathRulesWalk(e->child_slot(i), ctx);
  }
  if (e->kind() == ExprKind::kPath && ctx->options->ddo_elision) {
    if (CollapseSlashSlash(e, ctx)) {
      // The collapse retargets a step below this node: refresh the subtree.
      AnalyzeExpr(e.get(), ctx->module);
      changed = true;
    } else if (changed) {
      AnalyzeNode(e.get(), ctx->module);
    }
    if (ElideDdo(static_cast<PathExpr*>(e.get()), ctx)) {
      AnalyzeNode(e.get(), ctx->module);
      changed = true;
    }
  } else if (changed) {
    AnalyzeNode(e.get(), ctx->module);
  }
  if (e->kind() == ExprKind::kPath && ctx->options->index_paths) {
    // Index marking: purely structural recognition of the fragment the
    // document synopsis / value index can answer (index/index_planner.h).
    // The plan itself is re-derived at execution time, so the flag can
    // never go stale against the expression tree; other rules reshaping
    // the path simply flip it on the next pass. Only the false->true
    // transition counts as a change, so marking converges.
    auto* path = static_cast<PathExpr*>(e.get());
    bool candidate = PlanIndexPath(*path).has_value();
    if (candidate != path->index_candidate) {
      path->index_candidate = candidate;
      if (candidate) ctx->Count("index-path-mark");
    }
  }
  return changed;
}

}  // namespace

Status ApplyPathRules(ExprPtr& e, RuleContext* ctx) {
  PathRulesWalk(e, ctx);
  return Status::OK();
}

}  // namespace opt_internal
}  // namespace xqp
