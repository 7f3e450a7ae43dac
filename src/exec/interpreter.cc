#include "exec/interpreter.h"

#include <algorithm>
#include <chrono>
#include <functional>
#include <utility>

#include "base/fault.h"
#include "base/string_util.h"
#include "exec/axes.h"
#include "exec/constructor.h"
#include "exec/operators.h"
#include "exec/order_by.h"
#include "exec/type_match.h"
#include "exec/value_join.h"
#include "index/index_planner.h"
#include "opt/access_path.h"

namespace xqp {

Result<Sequence> Interpreter::Eval(const Expr* e) {
  // The eager engine's cooperative check sites: one poll per expression
  // evaluation bounds the work between checks by the cheapest leaf eval.
  if (ctx_->governor != nullptr) {
    XQP_RETURN_NOT_OK(ctx_->governor->Poll());
  }
  if (fault::Armed()) {
    XQP_RETURN_NOT_OK(fault::MaybeInject("iterators.next"));
  }
  if (ctx_->profile == nullptr) return EvalDispatch(e);
  OpStats* stats = ctx_->profile->StatsFor(e);
  const auto start = std::chrono::steady_clock::now();
  Result<Sequence> result = EvalDispatch(e);
  const auto ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
                      std::chrono::steady_clock::now() - start)
                      .count();
  stats->wall_ns += ns < 0 ? 0 : uint64_t(ns);
  ++stats->next_calls;
  if (result.ok()) stats->items += result.value().size();
  return result;
}

Result<Sequence> Interpreter::EvalDispatch(const Expr* e) {
  switch (e->kind()) {
    case ExprKind::kLiteral:
      return Sequence{Item(static_cast<const LiteralExpr*>(e)->value)};

    case ExprKind::kVarRef: {
      const auto* var = static_cast<const VarRefExpr*>(e);
      const auto& frame = var->is_global ? ctx_->globals : ctx_->slots;
      if (var->slot < 0 || var->slot >= static_cast<int>(frame.size()) ||
          frame[var->slot] == nullptr) {
        return Status::DynamicError("unbound variable: $" + var->name.Lexical());
      }
      XQP_ASSIGN_OR_RETURN(const Sequence* items,
                           frame[var->slot]->Materialize());
      return *items;
    }

    case ExprKind::kContextItem: {
      XQP_ASSIGN_OR_RETURN(const Item* item, FocusItem(ctx_->focus));
      return Sequence{*item};
    }

    case ExprKind::kRoot: {
      XQP_ASSIGN_OR_RETURN(const Item* item, FocusItem(ctx_->focus));
      XQP_ASSIGN_OR_RETURN(Item root, SlashRoot(*item));
      return Sequence{std::move(root)};
    }

    case ExprKind::kSequence: {
      Sequence out;
      for (size_t i = 0; i < e->NumChildren(); ++i) {
        XQP_ASSIGN_OR_RETURN(Sequence part, Eval(e->child(i)));
        out.insert(out.end(), std::make_move_iterator(part.begin()),
                   std::make_move_iterator(part.end()));
      }
      return out;
    }

    case ExprKind::kRange:
    case ExprKind::kArithmetic:
    case ExprKind::kUnary:
    case ExprKind::kComparison:
    case ExprKind::kInstanceOf:
    case ExprKind::kCastAs:
    case ExprKind::kCastableAs:
    case ExprKind::kUnion:
    case ExprKind::kIntersectExcept:
    case ExprKind::kElementCtor:
    case ExprKind::kAttributeCtor:
    case ExprKind::kTextCtor:
    case ExprKind::kCommentCtor:
    case ExprKind::kPiCtor:
    case ExprKind::kDocumentCtor:
      return EvalOperator(*e);

    case ExprKind::kLogical: {
      const auto* logic = static_cast<const LogicalExpr*>(e);
      XQP_ASSIGN_OR_RETURN(Sequence lhs, Eval(e->child(0)));
      XQP_ASSIGN_OR_RETURN(bool lv, EffectiveBooleanValue(lhs));
      // Short-circuit (the spec's non-determinism permits this).
      if (logic->is_and && !lv) {
        return Sequence{Item(AtomicValue::Boolean(false))};
      }
      if (!logic->is_and && lv) {
        return Sequence{Item(AtomicValue::Boolean(true))};
      }
      XQP_ASSIGN_OR_RETURN(Sequence rhs, Eval(e->child(1)));
      XQP_ASSIGN_OR_RETURN(bool rv, EffectiveBooleanValue(rhs));
      return Sequence{Item(AtomicValue::Boolean(rv))};
    }

    case ExprKind::kPath:
      return EvalPath(static_cast<const PathExpr*>(e));
    case ExprKind::kStep:
      return EvalStep(static_cast<const StepExpr*>(e));
    case ExprKind::kFilter:
      return EvalFilter(static_cast<const FilterExpr*>(e));
    case ExprKind::kFlwor:
      return EvalFlwor(static_cast<const FlworExpr*>(e));
    case ExprKind::kQuantified:
      return EvalQuantified(static_cast<const QuantifiedExpr*>(e));

    case ExprKind::kIf: {
      XQP_ASSIGN_OR_RETURN(Sequence cond, Eval(e->child(0)));
      XQP_ASSIGN_OR_RETURN(bool b, EffectiveBooleanValue(cond));
      return Eval(e->child(b ? 1 : 2));
    }

    case ExprKind::kTypeswitch:
      return EvalTypeswitch(static_cast<const TypeswitchExpr*>(e));

    case ExprKind::kTreatAs: {
      const SequenceType& type = static_cast<const TreatExpr*>(e)->type;
      XQP_ASSIGN_OR_RETURN(Sequence v, Eval(e->child(0)));
      for (size_t i = 0; i < v.size(); ++i) {
        XQP_RETURN_NOT_OK(CheckTreat(type, &v[i], i + 1));
      }
      XQP_RETURN_NOT_OK(CheckTreat(type, nullptr, v.size()));
      return v;
    }

    case ExprKind::kFunctionCall:
      return EvalCall(static_cast<const FunctionCallExpr*>(e));

    case ExprKind::kTryCatch: {
      auto attempt = Eval(e->child(0));
      if (attempt.ok()) return attempt;
      StatusCode code = attempt.status().code();
      if (code != StatusCode::kDynamicError && code != StatusCode::kTypeError) {
        return attempt;  // Only dynamic/type errors are catchable.
      }
      return Eval(e->child(1));
    }
  }
  return Status::Internal("unhandled expression kind");
}

Result<Sequence> Interpreter::EvalPath(const PathExpr* e) {
  if (e->index_candidate) {
    XQP_ASSIGN_OR_RETURN(std::optional<Sequence> answered,
                         TryExecuteAccessPath(e, ctx_));
    if (answered.has_value()) return std::move(*answered);
  }
  XQP_ASSIGN_OR_RETURN(Sequence input, Eval(e->child(0)));
  Sequence out;
  int64_t size = static_cast<int64_t>(input.size());
  for (int64_t i = 0; i < size; ++i) {
    XQP_ASSIGN_OR_RETURN(Sequence part,
                         EvalInFocus(e->child(1), input[i], i + 1, size));
    out.insert(out.end(), std::make_move_iterator(part.begin()),
               std::make_move_iterator(part.end()));
  }
  XQP_RETURN_NOT_OK(FinishPathResult(*e, &out));
  return out;
}

Result<Sequence> Interpreter::EvalInFocus(const Expr* e, const Item& item,
                                          int64_t position, int64_t size) {
  FocusInfo outer =
      std::exchange(ctx_->focus, FocusInfo{true, item, position, size});
  Result<Sequence> result = Eval(e);
  ctx_->focus = std::move(outer);
  return result;
}

Result<Sequence> Interpreter::EvalStep(const StepExpr* e) {
  XQP_ASSIGN_OR_RETURN(const Item* origin,
                       FocusItem(ctx_->focus, /*axis_step=*/true));
  Sequence out;
  CollectAxis(origin->AsNode(), e->axis, e->test, &out, ctx_);
  return out;
}

Result<Sequence> Interpreter::EvalFilter(const FilterExpr* e) {
  XQP_ASSIGN_OR_RETURN(Sequence current, Eval(e->child(0)));
  for (size_t p = 1; p < e->NumChildren(); ++p) {
    const Expr* pred = e->child(p);
    Sequence next;
    int64_t size = static_cast<int64_t>(current.size());
    for (int64_t i = 0; i < size; ++i) {
      XQP_ASSIGN_OR_RETURN(Sequence value,
                           EvalInFocus(pred, current[i], i + 1, size));
      XQP_ASSIGN_OR_RETURN(bool keep, PredicateKeeps(value, i + 1));
      if (keep) next.push_back(current[i]);
    }
    current = std::move(next);
  }
  return current;
}

Result<Sequence> Interpreter::EvalFlwor(const FlworExpr* e) {
  using Tuple = flwor::OrderedTuple;
  std::vector<Tuple> tuples;
  bool has_order = false;
  for (const auto& c : e->clauses) {
    if (c.type == FlworExpr::Clause::Type::kOrderSpec) has_order = true;
  }
  Sequence out;

  // Recursive tuple-stream evaluation over clauses.
  std::function<Status(size_t, Tuple*)> run = [&](size_t ci,
                                                  Tuple* tuple) -> Status {
    if (ci == e->clauses.size()) {
      XQP_ASSIGN_OR_RETURN(Sequence result, Eval(e->return_expr()));
      if (has_order) {
        Tuple done = *tuple;
        done.result = std::move(result);
        tuples.push_back(std::move(done));
      } else {
        out.insert(out.end(), std::make_move_iterator(result.begin()),
                   std::make_move_iterator(result.end()));
      }
      return Status::OK();
    }
    const FlworExpr::Clause& c = e->clauses[ci];
    switch (c.type) {
      case FlworExpr::Clause::Type::kFor: {
        if (c.join != ValueJoinKind::kNone) {
          const value_join::Spec spec = value_join::SpecOf(*e, ci);
          std::optional<Sequence> matches = value_join::Match(
              spec, ctx_, [this](const Expr* x) { return Eval(x); });
          if (matches.has_value()) {
            // Every match passes the comparison; only the rest of the
            // where predicate (clause ci + 1) is left to test.
            for (const Item& item : *matches) {
              ctx_->slots[c.var_slot] = LazySeq::FromItem(item);
              if (spec.rest != nullptr) {
                XQP_ASSIGN_OR_RETURN(Sequence cond, Eval(spec.rest));
                XQP_ASSIGN_OR_RETURN(bool b, EffectiveBooleanValue(cond));
                if (!b) continue;
              }
              XQP_RETURN_NOT_OK(run(ci + 2, tuple));
            }
            return Status::OK();
          }
        }
        XQP_ASSIGN_OR_RETURN(Sequence domain, Eval(e->child(ci)));
        for (size_t i = 0; i < domain.size(); ++i) {
          ctx_->slots[c.var_slot] = LazySeq::FromItem(domain[i]);
          if (c.pos_slot >= 0) {
            ctx_->slots[c.pos_slot] = LazySeq::FromItem(
                Item(AtomicValue::Integer(static_cast<int64_t>(i + 1))));
          }
          XQP_RETURN_NOT_OK(run(ci + 1, tuple));
        }
        return Status::OK();
      }
      case FlworExpr::Clause::Type::kLet: {
        XQP_ASSIGN_OR_RETURN(Sequence value, Eval(e->child(ci)));
        ctx_->slots[c.var_slot] = LazySeq::FromVector(std::move(value));
        return run(ci + 1, tuple);
      }
      case FlworExpr::Clause::Type::kWhere: {
        XQP_ASSIGN_OR_RETURN(Sequence cond, Eval(e->child(ci)));
        XQP_ASSIGN_OR_RETURN(bool b, EffectiveBooleanValue(cond));
        if (!b) return Status::OK();
        return run(ci + 1, tuple);
      }
      case FlworExpr::Clause::Type::kOrderSpec: {
        XQP_ASSIGN_OR_RETURN(Sequence key, Eval(e->child(ci)));
        XQP_ASSIGN_OR_RETURN(flwor::OrderKey cell, flwor::MakeOrderKey(key));
        tuple->keys.push_back(std::move(cell));
        Status st = run(ci + 1, tuple);
        tuple->keys.pop_back();
        return st;
      }
    }
    return Status::Internal("unknown clause");
  };

  Tuple scratch;
  XQP_RETURN_NOT_OK(run(0, &scratch));

  if (!has_order) return out;

  // Sort tuples by their order keys (shared with the VM's kSortTuples).
  std::vector<flwor::OrderSpecFlags> specs;
  for (const auto& c : e->clauses) {
    if (c.type == FlworExpr::Clause::Type::kOrderSpec) {
      specs.push_back({c.descending, c.empty_least});
    }
  }
  XQP_RETURN_NOT_OK(flwor::SortTuples(&tuples, specs));
  for (Tuple& t : tuples) {
    out.insert(out.end(), std::make_move_iterator(t.result.begin()),
               std::make_move_iterator(t.result.end()));
  }
  return out;
}

Result<Sequence> Interpreter::EvalQuantified(const QuantifiedExpr* e) {
  // Nested loops with early exit (lazy evaluation of quantifiers).
  std::function<Result<bool>(size_t)> run = [&](size_t bi) -> Result<bool> {
    if (bi == e->bindings.size()) {
      XQP_ASSIGN_OR_RETURN(Sequence sat, Eval(e->child(e->NumChildren() - 1)));
      return EffectiveBooleanValue(sat);
    }
    XQP_ASSIGN_OR_RETURN(Sequence domain, Eval(e->child(bi)));
    for (const Item& item : domain) {
      ctx_->slots[e->bindings[bi].var_slot] = LazySeq::FromItem(item);
      XQP_ASSIGN_OR_RETURN(bool b, run(bi + 1));
      if (b != e->is_every) return b;  // some: true short-circuits; every: false.
    }
    return e->is_every;
  };
  XQP_ASSIGN_OR_RETURN(bool result, run(0));
  return Sequence{Item(AtomicValue::Boolean(result))};
}

Result<Sequence> Interpreter::EvalTypeswitch(const TypeswitchExpr* e) {
  XQP_ASSIGN_OR_RETURN(Sequence operand, Eval(e->child(0)));
  for (size_t i = 0; i < e->cases.size(); ++i) {
    const auto& c = e->cases[i];
    if (MatchesSequenceType(operand, c.type)) {
      if (c.var_slot >= 0) {
        ctx_->slots[c.var_slot] = LazySeq::FromVector(operand);
      }
      return Eval(e->child(i + 1));
    }
  }
  if (e->default_var_slot >= 0) {
    ctx_->slots[e->default_var_slot] = LazySeq::FromVector(operand);
  }
  return Eval(e->child(e->NumChildren() - 1));
}

Result<Sequence> Interpreter::EvalCall(const FunctionCallExpr* e) {
  std::vector<Sequence> args;
  args.reserve(e->NumChildren());
  for (size_t i = 0; i < e->NumChildren(); ++i) {
    XQP_ASSIGN_OR_RETURN(Sequence arg, Eval(e->child(i)));
    args.push_back(std::move(arg));
  }
  if (e->user_index >= 0) {
    const UserFunction& fn = ctx_->module->functions[e->user_index];
    XQP_ASSIGN_OR_RETURN(CallFrame frame, BindUserCall(fn, args, *ctx_));
    ctx_->SwapFrame(&frame);
    ++ctx_->call_depth;
    Result<Sequence> result = Eval(fn.body.get());
    --ctx_->call_depth;
    ctx_->SwapFrame(&frame);
    return result;
  }
  return CallBuiltin(static_cast<Builtin>(e->builtin), args, ctx_,
                     ctx_->focus);
}

Result<Sequence> Interpreter::EvalOperator(const Expr& e) {
  // A unary or binary operator evaluates into fixed storage; only a
  // constructor with more operands uses the heap.
  Sequence fixed[2];
  std::vector<Sequence> more;
  std::span<const Sequence> operands;
  if (e.kind() != ExprKind::kElementCtor && e.NumChildren() <= 2) {
    for (size_t i = 0; i < e.NumChildren(); ++i) {
      XQP_ASSIGN_OR_RETURN(fixed[i], Eval(e.child(i)));
    }
    operands = std::span<const Sequence>(fixed, e.NumChildren());
  } else {
    XQP_RETURN_NOT_OK(construct::ForEachOperand(
        e, ctx_->profile, [&](const Expr* operand) -> Status {
          XQP_ASSIGN_OR_RETURN(Sequence value, Eval(operand));
          more.push_back(std::move(value));
          return Status::OK();
        }));
    operands = more;
  }
  Sequence out;
  XQP_RETURN_NOT_OK(ApplyOperator(e, operands, ctx_, &out));
  return out;
}

Result<Sequence> EvalExpr(const Expr* e, DynamicContext* ctx) {
  Interpreter interp(ctx);
  return interp.Eval(e);
}

}  // namespace xqp
