#include <algorithm>
#include <vector>

#include "opt/inline_functions.h"
#include "opt/properties.h"
#include "opt/rewriter.h"
#include "query/expr.h"

namespace xqp {
namespace opt_internal {

namespace {

/// LET clause folding and dead-let elimination (paper: fold when the
/// expression never creates new nodes, or when the variable is used once
/// outside any loop; drop unused lets — both engines then agree on the
/// laziness the paper assumes).
void FoldLets(FlworExpr* flwor, RuleContext* ctx) {
  for (size_t i = 0; i < flwor->clauses.size();) {
    FlworExpr::Clause& c = flwor->clauses[i];
    if (c.type != FlworExpr::Clause::Type::kLet) {
      ++i;
      continue;
    }
    // Count uses in everything after this clause.
    int uses = 0;
    bool in_loop = false;
    for (size_t j = i + 1; j < flwor->NumChildren(); ++j) {
      uses += CountVarUses(flwor->child(j), c.var_slot, &in_loop);
    }
    const Expr* value = flwor->child(i);
    if (uses == 0) {
      flwor->clauses.erase(flwor->clauses.begin() + i);
      flwor->RemoveChild(i);
      ctx->Count("dead-let-elimination");
      continue;
    }
    bool cheap = value->kind() == ExprKind::kLiteral ||
                 value->kind() == ExprKind::kVarRef;
    bool once_outside_loop = uses == 1 && !in_loop;
    bool foldable =
        cheap || (once_outside_loop && !value->props.uses_context);
    if (foldable) {
      ExprPtr taken = flwor->TakeChild(i);
      int slot = c.var_slot;
      flwor->clauses.erase(flwor->clauses.begin() + i);
      flwor->RemoveChild(i);
      for (size_t j = i; j < flwor->NumChildren(); ++j) {
        SubstituteVar(flwor->child(j), slot, *taken);
        // Direct child *is* the var ref?
        Expr* child = flwor->child(j);
        if (child->kind() == ExprKind::kVarRef) {
          const auto* var = static_cast<const VarRefExpr*>(child);
          if (!var->is_global && var->slot == slot) {
            flwor->SetChild(j, taken->Clone());
          }
        }
      }
      ctx->Count("let-folding");
      continue;
    }
    ++i;
  }
}

/// FOR-clause unnesting: for $x in (for $y in E where P return F) ...
/// splices the inner clauses into the outer FLWOR ("traditional database
/// technique", relatively simpler than OQL since XML has no nested
/// collections).
void UnnestForClauses(FlworExpr* flwor, RuleContext* ctx) {
  for (size_t i = 0; i < flwor->clauses.size(); ++i) {
    FlworExpr::Clause& c = flwor->clauses[i];
    if (c.type != FlworExpr::Clause::Type::kFor || c.has_pos_var()) continue;
    if (flwor->child(i)->kind() != ExprKind::kFlwor) continue;
    auto* inner = static_cast<FlworExpr*>(flwor->child(i));
    bool simple = true;
    for (const auto& ic : inner->clauses) {
      if (ic.type == FlworExpr::Clause::Type::kOrderSpec) simple = false;
    }
    if (!simple) continue;

    // Splice: [before i] + inner clauses + (for $x in inner-return) + rest.
    ExprPtr inner_owned = flwor->TakeChild(i);
    auto* inner_flwor = static_cast<FlworExpr*>(inner_owned.get());
    size_t inner_n = inner_flwor->clauses.size();
    // Insert inner clauses before clause i.
    for (size_t k = 0; k < inner_n; ++k) {
      flwor->clauses.insert(flwor->clauses.begin() + i + k,
                            inner_flwor->clauses[k]);
      flwor->InsertChild(i + k, inner_flwor->TakeChild(k));
    }
    // The outer for's domain becomes the inner return expression.
    flwor->SetChild(i + inner_n, inner_flwor->TakeChild(inner_n));
    ctx->Count("for-unnesting");
    return;  // Indices changed; retry next pass.
  }
}

/// RETURN-clause unnesting: a FLWOR whose return is itself an order-free
/// FLWOR merges into one tuple stream.
void UnnestReturn(FlworExpr* flwor, RuleContext* ctx) {
  Expr* ret = flwor->return_expr();
  if (ret->kind() != ExprKind::kFlwor) return;
  auto* inner = static_cast<FlworExpr*>(ret);
  for (const auto& ic : inner->clauses) {
    if (ic.type == FlworExpr::Clause::Type::kOrderSpec) return;
  }
  size_t ret_index = flwor->NumChildren() - 1;
  ExprPtr inner_owned = flwor->TakeChild(ret_index);
  flwor->RemoveChild(ret_index);
  auto* inner_flwor = static_cast<FlworExpr*>(inner_owned.get());
  size_t inner_n = inner_flwor->clauses.size();
  for (size_t k = 0; k < inner_n; ++k) {
    flwor->clauses.push_back(inner_flwor->clauses[k]);
    flwor->AddChild(inner_flwor->TakeChild(k));
  }
  flwor->AddChild(inner_flwor->TakeChild(inner_n));  // Inner return.
  ctx->Count("return-unnesting");
}

/// FOR-clause minimization: `for $x in E return $x` => E, and
/// `for $x in E return $x/path` => E/path when E's order/distinctness make
/// the forms equivalent.
void MinimizeFor(ExprPtr& e, RuleContext* ctx) {
  auto* flwor = static_cast<FlworExpr*>(e.get());
  if (flwor->clauses.size() != 1) return;
  const FlworExpr::Clause& c = flwor->clauses[0];
  if (c.type != FlworExpr::Clause::Type::kFor || c.has_pos_var()) return;
  Expr* ret = flwor->return_expr();

  // for $x in E return $x  =>  E.
  if (ret->kind() == ExprKind::kVarRef) {
    const auto* var = static_cast<const VarRefExpr*>(ret);
    if (!var->is_global && var->slot == c.var_slot) {
      e = flwor->TakeChild(0);
      ctx->Count("for-minimization");
      return;
    }
  }

  // for $x in E return $x/steps  =>  E/steps (identity requires E ordered
  // and duplicate-free, since the path form re-sorts).
  if (ret->kind() != ExprKind::kPath) return;
  const ExprProps& domain = flwor->child(0)->props;
  if (!domain.ordered || !domain.distinct) return;
  // Find the leftmost leaf of the path chain.
  Expr* leftmost = ret;
  while (leftmost->kind() == ExprKind::kPath) leftmost = leftmost->child(0);
  if (leftmost->kind() != ExprKind::kVarRef) return;
  const auto* var = static_cast<const VarRefExpr*>(leftmost);
  if (var->is_global || var->slot != c.var_slot) return;
  // The variable must not occur anywhere else.
  bool in_loop = false;
  if (CountVarUses(ret, c.var_slot, &in_loop) != 1) return;

  ExprPtr domain_expr = flwor->TakeChild(0);
  ExprPtr path = flwor->TakeChild(1);  // The return expression.
  // Replace the leftmost VarRef with the domain.
  Expr* cursor = path.get();
  while (cursor->child(0)->kind() == ExprKind::kPath) {
    cursor = cursor->child(0);
  }
  cursor->SetChild(0, std::move(domain_expr));
  e = std::move(path);
  ctx->Count("for-minimization");
}

/// Value-join planning (the paper's FLWOR unnesting carried to correlated
/// inner FLWORs): marks `for $t in E` when the next clause is a where
/// whose predicate, or its first `and` conjunct, is a general comparison
/// `K op O` (=, <, <=, >, >=) with K reading $t and O not; when E and K
/// are pure (no node construction, no focus) and read only globals and
/// the main body's leading lets; and when the clause sits inside a loop,
/// so an index built once per execution is probed more than once.
class ValueJoinPlanner {
 public:
  explicit ValueJoinPlanner(RuleContext* ctx) : ctx_(ctx) {}

  void PlanBody(Expr* body) {
    if (body->kind() != ExprKind::kFlwor) {
      Walk(body, false);
      return;
    }
    // The leading lets (the CSE lets) are bound once per execution; each
    // is in scope for everything after it.
    auto* flwor = static_cast<FlworExpr*>(body);
    size_t i = 0;
    for (; i < flwor->clauses.size() &&
           flwor->clauses[i].type != FlworExpr::Clause::Type::kFor;
         ++i) {
      Walk(flwor->child(i), false);
      if (flwor->clauses[i].type == FlworExpr::Clause::Type::kLet) {
        top_lets_.push_back(flwor->clauses[i].var_slot);
      }
    }
    WalkFlwor(flwor, i, false);
  }

 private:
  void Walk(Expr* e, bool in_loop) {
    switch (e->kind()) {
      case ExprKind::kFlwor:
        WalkFlwor(static_cast<FlworExpr*>(e), 0, in_loop);
        return;
      case ExprKind::kQuantified:
      case ExprKind::kFilter:
      case ExprKind::kPath:
        // Everything after the first domain / base / lhs runs per item.
        for (size_t i = 0; i < e->NumChildren(); ++i) {
          Walk(e->child(i), in_loop || i > 0);
        }
        return;
      default:
        for (size_t i = 0; i < e->NumChildren(); ++i) {
          Walk(e->child(i), in_loop);
        }
        return;
    }
  }

  void WalkFlwor(FlworExpr* flwor, size_t start, bool in_loop) {
    for (size_t i = start; i < flwor->clauses.size(); ++i) {
      Walk(flwor->child(i), in_loop);
      if (flwor->clauses[i].type != FlworExpr::Clause::Type::kFor) continue;
      if (in_loop) TryPlan(flwor, i);
      in_loop = true;
    }
    Walk(flwor->return_expr(), in_loop);
  }

  void TryPlan(FlworExpr* flwor, size_t i) {
    FlworExpr::Clause& c = flwor->clauses[i];
    if (c.has_pos_var() || i + 1 >= flwor->clauses.size() ||
        flwor->clauses[i + 1].type != FlworExpr::Clause::Type::kWhere) {
      return;
    }
    // The first conjunct of a left-nested `and` chain.
    const Expr* pred = flwor->child(i + 1);
    while (IsAnd(*pred)) pred = pred->child(0);
    if (pred->kind() != ExprKind::kComparison) return;
    const CompOp op = static_cast<const ComparisonExpr*>(pred)->op;
    if (op != CompOp::kGenEq && op != CompOp::kGenLt &&
        op != CompOp::kGenLe && op != CompOp::kGenGt &&
        op != CompOp::kGenGe) {
      return;
    }
    bool in_loop = false;
    const bool lhs_reads =
        CountVarUses(pred->child(0), c.var_slot, &in_loop) > 0;
    const bool rhs_reads =
        CountVarUses(pred->child(1), c.var_slot, &in_loop) > 0;
    if (lhs_reads == rhs_reads) return;
    const Expr* key = pred->child(lhs_reads ? 0 : 1);
    const Expr* domain = flwor->child(i);
    if (!Pure(*domain) || !Pure(*key) || !ReadsOnlyInvariants(*domain, -1) ||
        !ReadsOnlyInvariants(*key, c.var_slot)) {
      return;
    }
    c.join = op == CompOp::kGenEq ? ValueJoinKind::kHash
                                  : ValueJoinKind::kRange;
    c.join_id = next_id_++;
    HoistFirstConjunct(flwor->child_slot(i + 1));
    ctx_->Count("value-join");
  }

  static bool IsAnd(const Expr& e) {
    return e.kind() == ExprKind::kLogical &&
           static_cast<const LogicalExpr&>(e).is_and;
  }

  /// Re-associates `(C and A) and B` as `C and (A and B)` until the join
  /// comparison C is the predicate's direct left operand, so the backends
  /// can test the rest as one expression. Evaluation order is unchanged.
  static void HoistFirstConjunct(ExprPtr& pred) {
    while (IsAnd(*pred) && IsAnd(*pred->child(0))) {
      ExprPtr outer = std::move(pred);      // (C and A) and B
      ExprPtr inner = outer->TakeChild(0);  // C and A
      outer->SetChild(0, inner->TakeChild(1));
      inner->SetChild(1, std::move(outer));
      pred = std::move(inner);              // C and (A and B)
    }
  }

  static bool Pure(const Expr& e) {
    const ExprProps& p = e.props;
    return p.analyzed && !p.creates_nodes && !p.uses_context &&
           !p.uses_position && !p.uses_last;
  }

  /// Every local `e` reads is bound inside it, is a leading let in scope,
  /// or is `allowed` ($t for the key).
  bool ReadsOnlyInvariants(const Expr& e, int allowed) const {
    std::vector<int> used;
    std::vector<int> bound;
    CollectUsedSlots(&e, &used);
    CollectBoundSlots(&e, &bound);
    auto has = [](const std::vector<int>& v, int slot) {
      return std::find(v.begin(), v.end(), slot) != v.end();
    };
    for (int slot : used) {
      if (slot != allowed && !has(bound, slot) && !has(top_lets_, slot)) {
        return false;
      }
    }
    return true;
  }

  RuleContext* ctx_;
  std::vector<int> top_lets_;
  int next_id_ = 0;
};

}  // namespace

void PlanValueJoins(Expr* body, RuleContext* ctx) {
  ValueJoinPlanner(ctx).PlanBody(body);
}

Status ApplyFlworRules(ExprPtr& e, RuleContext* ctx) {
  for (size_t i = 0; i < e->NumChildren(); ++i) {
    XQP_RETURN_NOT_OK(ApplyFlworRules(e->child_slot(i), ctx));
  }
  if (e->kind() == ExprKind::kFlwor) {
    auto* flwor = static_cast<FlworExpr*>(e.get());
    if (ctx->options->flwor_unnesting) {
      UnnestForClauses(flwor, ctx);
      UnnestReturn(flwor, ctx);
    }
    if (ctx->options->let_folding) {
      FoldLets(flwor, ctx);
    }
    // A FLWOR whose clauses all folded away reduces to its return.
    if (flwor->clauses.empty()) {
      e = e->TakeChild(0);
      ctx->Count("flwor-collapse");
    } else if (ctx->options->for_to_path) {
      MinimizeFor(e, ctx);
    }
  }
  if (e->kind() == ExprKind::kFunctionCall && ctx->options->function_inlining) {
    // The mechanism lives in opt/inline_functions.cc, shared with the
    // engine's pre-lowering fixpoint pass.
    XQP_ASSIGN_OR_RETURN(
        int inlined,
        InlineFunctionCalls(e, *ctx->module,
                            ctx->options->inline_size_limit, ctx->next_slot));
    for (int i = 0; i < inlined; ++i) ctx->Count("function-inlining");
  }
  return Status::OK();
}

}  // namespace opt_internal
}  // namespace xqp
