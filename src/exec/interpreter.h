#ifndef XQP_EXEC_INTERPRETER_H_
#define XQP_EXEC_INTERPRETER_H_

#include "exec/builtins.h"
#include "exec/dynamic_context.h"
#include "exec/item.h"
#include "query/static_context.h"

namespace xqp {

/// The eager, fully materializing reference evaluator: every subexpression
/// is evaluated to a complete Sequence before its parent continues. This is
/// the baseline against which the streaming/lazy iterator engine is
/// differential-tested and benchmarked (experiments E1/E2/E8).
class Interpreter {
 public:
  explicit Interpreter(DynamicContext* ctx) : ctx_(ctx) {}

  /// Evaluates `e` under the current context, whose focus (ctx->focus)
  /// each path and predicate loop rebinds for its operand. When the
  /// context carries a QueryProfile, each evaluation records invocation
  /// count, result cardinality, and inclusive wall time per expression node;
  /// otherwise the profiling hook is a single pointer test.
  Result<Sequence> Eval(const Expr* e);

 private:
  /// The unprofiled evaluation switch Eval dispatches to.
  Result<Sequence> EvalDispatch(const Expr* e);

  /// Evaluates `e` with the focus bound to `item` at `position` of
  /// `size`, then restores the enclosing focus.
  Result<Sequence> EvalInFocus(const Expr* e, const Item& item,
                               int64_t position, int64_t size);
  Result<Sequence> EvalPath(const PathExpr* e);
  Result<Sequence> EvalStep(const StepExpr* e);
  Result<Sequence> EvalFilter(const FilterExpr* e);
  Result<Sequence> EvalFlwor(const FlworExpr* e);
  Result<Sequence> EvalQuantified(const QuantifiedExpr* e);
  Result<Sequence> EvalTypeswitch(const TypeswitchExpr* e);
  Result<Sequence> EvalCall(const FunctionCallExpr* e);
  /// The materializing operators (exec/operators.h): evaluates the
  /// operands of `e`, then applies it.
  Result<Sequence> EvalOperator(const Expr& e);

  DynamicContext* ctx_;
};

/// Convenience: evaluates a whole module body (after globals are bound).
Result<Sequence> EvalExpr(const Expr* e, DynamicContext* ctx);

}  // namespace xqp

#endif  // XQP_EXEC_INTERPRETER_H_
