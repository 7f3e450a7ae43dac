#include "opt/const_fold.h"

#include <utility>

#include "exec/arithmetic.h"
#include "exec/compare.h"

namespace xqp {

namespace {

bool AllChildrenLiteral(const Expr& e) {
  if (e.NumChildren() == 0) return false;
  for (size_t i = 0; i < e.NumChildren(); ++i) {
    if (e.child(i)->kind() != ExprKind::kLiteral) return false;
  }
  return true;
}

Sequence LiteralOperand(const Expr& e, size_t i) {
  return Sequence{Item(static_cast<const LiteralExpr*>(e.child(i))->value)};
}

}  // namespace

std::optional<Sequence> TryFoldLiteralNode(const Expr& e) {
  switch (e.kind()) {
    case ExprKind::kArithmetic: {
      if (!AllChildrenLiteral(e)) return std::nullopt;
      auto r = EvalArithmetic(static_cast<const ArithmeticExpr&>(e).op,
                              LiteralOperand(e, 0), LiteralOperand(e, 1));
      if (!r.ok()) return std::nullopt;
      return std::move(r).value();
    }
    case ExprKind::kUnary: {
      if (!AllChildrenLiteral(e)) return std::nullopt;
      auto r = EvalUnary(static_cast<const UnaryExpr&>(e).negate,
                         LiteralOperand(e, 0));
      if (!r.ok()) return std::nullopt;
      return std::move(r).value();
    }
    case ExprKind::kComparison: {
      if (!AllChildrenLiteral(e)) return std::nullopt;
      CompOp op = static_cast<const ComparisonExpr&>(e).op;
      if (IsValueComp(op)) {
        auto r = EvalValueComparison(op, LiteralOperand(e, 0),
                                     LiteralOperand(e, 1));
        if (!r.ok()) return std::nullopt;
        return std::move(r).value();
      }
      if (IsGeneralComp(op)) {
        auto r = EvalGeneralComparison(op, LiteralOperand(e, 0),
                                       LiteralOperand(e, 1));
        if (!r.ok()) return std::nullopt;
        return Sequence{Item(AtomicValue::Boolean(r.value()))};
      }
      return std::nullopt;  // Node comparisons never have literal operands.
    }
    default:
      return std::nullopt;
  }
}

}  // namespace xqp
