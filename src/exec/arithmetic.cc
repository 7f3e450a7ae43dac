#include "exec/arithmetic.h"

#include <cmath>
#include <cstdint>

namespace xqp {

namespace {

/// Numeric tower rank: integer(0) < decimal(1) < double(2).
int Rank(XsType t) {
  switch (t) {
    case XsType::kInteger:
      return 0;
    case XsType::kDecimal:
      return 1;
    default:
      return 2;
  }
}

Result<AtomicValue> ToNumeric(const AtomicValue& v) {
  if (v.IsNumeric()) return v;
  if (v.type() == XsType::kUntypedAtomic) return v.CastTo(XsType::kDouble);
  return Status::TypeError("arithmetic on non-numeric operand (" +
                           std::string(XsTypeName(v.type())) + ")");
}

}  // namespace

Status ArithmeticError(ArithOp op, bool by_zero) {
  switch (op) {
    case ArithOp::kAdd:
      return Status::DynamicError("err:FOAR0002: integer overflow in addition");
    case ArithOp::kSub:
      return Status::DynamicError(
          "err:FOAR0002: integer overflow in subtraction");
    case ArithOp::kMul:
      return Status::DynamicError(
          "err:FOAR0002: integer overflow in multiplication");
    case ArithOp::kDiv:
      return Status::DynamicError("decimal division by zero");
    case ArithOp::kIDiv:
      return Status::DynamicError(
          by_zero ? "integer division by zero"
                  : "err:FOAR0002: integer overflow in idiv");
    case ArithOp::kMod:
      return Status::DynamicError("modulus by zero");
  }
  return Status::Internal("unknown arithmetic operator");
}

Result<Sequence> EvalArithmetic(ArithOp op, const Sequence& lhs,
                                const Sequence& rhs) {
  if (lhs.empty() || rhs.empty()) return Sequence{};
  if (lhs.size() != 1 || rhs.size() != 1) {
    return Status::TypeError("arithmetic requires singleton operands");
  }
  XQP_ASSIGN_OR_RETURN(AtomicValue a, ToNumeric(lhs[0].AsAtomic()));
  XQP_ASSIGN_OR_RETURN(AtomicValue b, ToNumeric(rhs[0].AsAtomic()));

  int rank = std::max(Rank(a.type()), Rank(b.type()));
  // "div" on integers produces a decimal.
  if (op == ArithOp::kDiv && rank == 0) rank = 1;

  if (rank == 0) {
    // Exact integer arithmetic; for idiv the double route below would lose
    // precision past 2^53.
    int64_t r = 0;
    if (!CheckedIntArith(op, a.AsInt(), b.AsInt(), &r)) {
      return ArithmeticError(op, b.AsInt() == 0);
    }
    return Sequence{Item(AtomicValue::Integer(r))};
  }

  if (op == ArithOp::kIDiv) {
    double y = b.NumericAsDouble();
    if (y == 0.0) return ArithmeticError(op, true);
    double x = a.NumericAsDouble();
    if (std::isnan(x) || std::isnan(y) || std::isinf(x)) {
      return Status::DynamicError("idiv with NaN or INF operand");
    }
    double q = std::trunc(x / y);
    // Casting a value outside int64's range is UB; make it err:FOAR0002.
    if (!(q >= -9223372036854775808.0 && q < 9223372036854775808.0)) {
      return ArithmeticError(op, false);
    }
    return Sequence{Item(AtomicValue::Integer(static_cast<int64_t>(q)))};
  }

  double x = a.NumericAsDouble();
  double y = b.NumericAsDouble();
  double r = 0;
  switch (op) {
    case ArithOp::kAdd:
      r = x + y;
      break;
    case ArithOp::kSub:
      r = x - y;
      break;
    case ArithOp::kMul:
      r = x * y;
      break;
    case ArithOp::kDiv:
      if (rank < 2 && y == 0.0) return ArithmeticError(op, true);
      r = x / y;
      break;
    case ArithOp::kMod:
      if (rank < 2 && y == 0.0) return ArithmeticError(op, true);
      r = std::fmod(x, y);
      break;
    case ArithOp::kIDiv:
      return Status::Internal("idiv handled above");
  }
  if (rank == 1) {
    if (std::isnan(r) || std::isinf(r)) {
      return Status::DynamicError("decimal overflow");
    }
    return Sequence{Item(AtomicValue::Decimal(r))};
  }
  return Sequence{Item(AtomicValue::Double(r))};
}

Result<Sequence> EvalUnary(bool negate, const Sequence& operand) {
  if (operand.empty()) return Sequence{};
  if (operand.size() != 1) {
    return Status::TypeError("unary arithmetic requires a singleton operand");
  }
  XQP_ASSIGN_OR_RETURN(AtomicValue v, ToNumeric(operand[0].AsAtomic()));
  if (!negate) return Sequence{Item(v)};
  switch (v.type()) {
    case XsType::kInteger: {
      int64_t x = v.AsInt();
      // -INT64_MIN is not representable; negating it is UB.
      if (x == INT64_MIN) {
        return Status::DynamicError(
            "err:FOAR0002: integer overflow in unary minus");
      }
      return Sequence{Item(AtomicValue::Integer(-x))};
    }
    case XsType::kDecimal:
      return Sequence{Item(AtomicValue::Decimal(-v.AsRawDouble()))};
    default:
      return Sequence{Item(AtomicValue::Double(-v.AsRawDouble()))};
  }
}

}  // namespace xqp
