#ifndef XQP_EXEC_ARITHMETIC_H_
#define XQP_EXEC_ARITHMETIC_H_

#include <cstdint>

#include "exec/item.h"
#include "query/expr.h"

namespace xqp {

/// Checked xs:integer `x op y` for every operator but div (integer operands
/// of div yield an xs:decimal). False when the result does not fit int64
/// or the divisor of idiv or mod is 0; ArithmeticError(op, y == 0) is then
/// the error. Signed overflow is UB in C++, and XQuery makes it a dynamic
/// error (err:FOAR0002), not a trap. Inline for the VM's integer fast path;
/// EvalArithmetic calls it too.
inline bool CheckedIntArith(ArithOp op, int64_t x, int64_t y, int64_t* r) {
  switch (op) {
    case ArithOp::kAdd:
      return !__builtin_add_overflow(x, y, r);
    case ArithOp::kSub:
      return !__builtin_sub_overflow(x, y, r);
    case ArithOp::kMul:
      return !__builtin_mul_overflow(x, y, r);
    case ArithOp::kMod:
      if (y == 0) return false;
      *r = y == -1 ? 0 : x % y;  // INT64_MIN % -1 traps on x86.
      return true;
    case ArithOp::kIDiv:
      if (y == 0 || (x == INT64_MIN && y == -1)) return false;
      *r = x / y;
      return true;
    case ArithOp::kDiv:
      return false;
  }
  return false;
}

/// The dynamic error of `op`: its zero-divisor error when `by_zero`, else
/// integer overflow (err:FOAR0002).
Status ArithmeticError(ArithOp op, bool by_zero);

/// Evaluates an arithmetic operation on two already-atomized operand
/// sequences, applying the paper's rules: () operand => (); untyped casts
/// to xs:double; numeric promotion integer -> decimal -> double; type
/// errors otherwise.
Result<Sequence> EvalArithmetic(ArithOp op, const Sequence& lhs,
                                const Sequence& rhs);

/// Unary +/-: atomized singleton (or () => ()).
Result<Sequence> EvalUnary(bool negate, const Sequence& operand);

}  // namespace xqp

#endif  // XQP_EXEC_ARITHMETIC_H_
