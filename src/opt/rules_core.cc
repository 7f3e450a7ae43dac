#include <functional>
#include <map>

#include "exec/interpreter.h"
#include "opt/properties.h"
#include "opt/rewriter.h"
#include "query/expr.h"

namespace xqp {
namespace opt_internal {

namespace {

/// Already in folded form (a literal, or a flat sequence of literals)?
bool IsFoldedForm(const Expr* e) {
  if (e->kind() == ExprKind::kLiteral) return true;
  if (e->kind() != ExprKind::kSequence) return false;
  for (size_t i = 0; i < e->NumChildren(); ++i) {
    if (e->child(i)->kind() != ExprKind::kLiteral) return false;
  }
  return true;
}

/// Evaluates a constant expression at compile time and replaces it with
/// its literal form. Evaluation errors leave the expression untouched (it
/// may sit on a dead branch).
void FoldConstant(ExprPtr& e, RuleContext* ctx) {
  if (IsFoldedForm(e.get()) || !e->props.constant) return;
  DynamicContext dctx;
  dctx.module = ctx->module;
  auto result = EvalExpr(e.get(), &dctx);
  if (!result.ok()) return;
  const Sequence& seq = result.value();
  if (seq.size() > 64) return;  // Don't bloat the plan with huge literals.
  for (const Item& item : seq) {
    if (!item.IsAtomic()) return;  // Only atomic results are foldable.
  }
  if (seq.size() == 1) {
    e = std::make_unique<LiteralExpr>(seq[0].AsAtomic());
  } else {
    auto folded = std::make_unique<SequenceExpr>();
    for (const Item& item : seq) {
      folded->AddChild(std::make_unique<LiteralExpr>(item.AsAtomic()));
    }
    e = std::move(folded);
  }
  ctx->Count("constant-folding");
}

bool LiteralBool(const Expr* e, bool* value) {
  if (e->kind() != ExprKind::kLiteral) return false;
  const auto& v = static_cast<const LiteralExpr*>(e)->value;
  // Use the EBV of the literal.
  Sequence seq{Item(v)};
  auto b = EffectiveBooleanValue(seq);
  if (!b.ok()) return false;
  *value = b.value();
  return true;
}

ExprPtr MakeBooleanLiteral(bool b) {
  return std::make_unique<LiteralExpr>(AtomicValue::Boolean(b));
}

/// Wraps `e` in fn:boolean(...) to preserve the EBV-to-boolean coercion.
ExprPtr WrapBoolean(ExprPtr e) {
  auto call = std::make_unique<FunctionCallExpr>(
      QName(std::string(kFnNamespace), "fn", "boolean"));
  call->builtin = static_cast<int>(Builtin::kBoolean);
  call->AddChild(std::move(e));
  return call;
}

/// Boolean/conditional algebraic rules: if(const) pruning, and/or with
/// literal operands ("algebraic properties of Boolean operators" — the
/// spec's non-determinism licenses `false and error => false`).
void SimplifyBoolean(ExprPtr& e, RuleContext* ctx) {
  if (e->kind() == ExprKind::kIf) {
    bool cond;
    if (LiteralBool(e->child(0), &cond)) {
      e = e->TakeChild(cond ? 1 : 2);
      ctx->Count("if-pruning");
      return;
    }
  }
  if (e->kind() == ExprKind::kLogical) {
    auto* logic = static_cast<LogicalExpr*>(e.get());
    for (int side = 0; side < 2; ++side) {
      bool value;
      if (!LiteralBool(e->child(side), &value)) continue;
      if (logic->is_and && !value) {
        e = MakeBooleanLiteral(false);
        ctx->Count("boolean-shortcircuit");
        return;
      }
      if (!logic->is_and && value) {
        e = MakeBooleanLiteral(true);
        ctx->Count("boolean-shortcircuit");
        return;
      }
      // Neutral element: drop it, keep the EBV of the other side.
      e = WrapBoolean(e->TakeChild(1 - side));
      ctx->Count("boolean-neutral");
      return;
    }
  }
  // fn:boolean(fn:boolean(x)) => fn:boolean(x); fn:not(fn:not(x)) =>
  // fn:boolean(x).
  if (e->kind() == ExprKind::kFunctionCall) {
    auto* call = static_cast<FunctionCallExpr*>(e.get());
    if (call->builtin == static_cast<int>(Builtin::kBoolean) &&
        call->NumChildren() == 1 &&
        call->child(0)->kind() == ExprKind::kFunctionCall) {
      auto* inner = static_cast<FunctionCallExpr*>(call->child(0));
      if (inner->builtin == static_cast<int>(Builtin::kBoolean) ||
          inner->builtin == static_cast<int>(Builtin::kNot)) {
        e = e->TakeChild(0);
        ctx->Count("boolean-idempotence");
        return;
      }
    }
    if (call->builtin == static_cast<int>(Builtin::kNot) &&
        call->NumChildren() == 1 &&
        call->child(0)->kind() == ExprKind::kFunctionCall) {
      auto* inner = static_cast<FunctionCallExpr*>(call->child(0));
      if (inner->builtin == static_cast<int>(Builtin::kNot) &&
          inner->NumChildren() == 1) {
        e = WrapBoolean(inner->TakeChild(0));
        ctx->Count("double-negation");
        return;
      }
    }
  }
}

/// Common-subexpression factorization within one FLWOR: pure, loop-
/// invariant subexpressions occurring twice or more are hoisted into a
/// fresh let clause (the paper's buffer-iterator-factory rewrite; its
/// error-timing caveat — "guaranteed only if runtime implements
/// consistently lazy evaluation" — applies to the eager engine).
void FactorCommonSubexpressions(FlworExpr* flwor, RuleContext* ctx) {
  std::vector<int> bound;
  CollectBoundSlots(flwor, &bound);
  auto is_bound = [&](int slot) {
    for (int b : bound) {
      if (b == slot) return true;
    }
    return false;
  };

  struct Site {
    Expr* parent;
    size_t index;
  };
  std::map<std::string, std::vector<Site>> groups;

  std::function<void(Expr*)> scan = [&](Expr* parent) {
    for (size_t i = 0; i < parent->NumChildren(); ++i) {
      Expr* child = parent->child(i);
      scan(child);
      if (child->kind() == ExprKind::kLiteral ||
          child->kind() == ExprKind::kVarRef ||
          child->kind() == ExprKind::kContextItem ||
          child->kind() == ExprKind::kStep) {
        continue;
      }
      const ExprProps& p = child->props;
      if (!p.analyzed || p.creates_nodes || p.uses_context ||
          p.uses_position || p.uses_last) {
        continue;
      }
      std::vector<int> used;
      CollectUsedSlots(child, &used);
      bool invariant = true;
      for (int slot : used) {
        if (is_bound(slot)) {
          invariant = false;
          break;
        }
      }
      if (!invariant) continue;
      std::string key = child->ToString();
      if (key.size() < 16) continue;  // Too trivial to pay for a binding.
      groups[key].push_back(Site{parent, i});
    }
  };
  scan(flwor);

  // Hoist the largest repeated group (one per pass keeps sites valid).
  const std::string* best = nullptr;
  for (const auto& [key, sites] : groups) {
    if (sites.size() < 2) continue;
    if (best == nullptr || key.size() > best->size()) best = &key;
  }
  if (best == nullptr) return;
  const std::vector<Site>& sites = groups[*best];

  int slot = (*ctx->next_slot)++;
  QName var_name("", "", "xqp-cse-" + std::to_string(slot));
  ExprPtr hoisted = sites[0].parent->child(sites[0].index)->Clone();
  for (const Site& site : sites) {
    auto ref = std::make_unique<VarRefExpr>(var_name);
    ref->slot = slot;
    site.parent->SetChild(site.index, std::move(ref));
  }
  FlworExpr::Clause clause;
  clause.type = FlworExpr::Clause::Type::kLet;
  clause.var = var_name;
  clause.var_slot = slot;
  flwor->clauses.insert(flwor->clauses.begin(), clause);
  flwor->InsertChild(0, std::move(hoisted));
  ctx->Count("cse-factorization");
}

}  // namespace

Status ApplyCoreRules(ExprPtr& e, RuleContext* ctx) {
  for (size_t i = 0; i < e->NumChildren(); ++i) {
    XQP_RETURN_NOT_OK(ApplyCoreRules(e->child_slot(i), ctx));
  }
  if (ctx->options->constant_folding) FoldConstant(e, ctx);
  if (ctx->options->boolean_simplification) SimplifyBoolean(e, ctx);
  if (ctx->options->cse && e->kind() == ExprKind::kFlwor) {
    FactorCommonSubexpressions(static_cast<FlworExpr*>(e.get()), ctx);
  }
  return Status::OK();
}

}  // namespace opt_internal
}  // namespace xqp
