#ifndef XQP_EXEC_COMPARE_H_
#define XQP_EXEC_COMPARE_H_

#include "exec/item.h"
#include "query/expr.h"

namespace xqp {

/// Three-way comparison of two atomic values for *value comparisons*:
/// untypedAtomic is treated as string (paper: <a>42</a> eq "42" is true,
/// <a>42</a> eq 42 is a type error). Returns a type error for incomparable
/// type pairs. NaN returns the special result kUnordered.
enum class CmpResult : int8_t { kLess = -1, kEqual = 0, kGreater = 1, kUnordered = 2 };
Result<CmpResult> CompareAtomicValues(const AtomicValue& a,
                                      const AtomicValue& b);

/// Evaluates a value comparison (eq/ne/lt/le/gt/ge) on two already-atomized
/// sequences. Per spec: () operand yields (); non-singletons are type
/// errors. Returns an empty sequence or a single boolean.
Result<Sequence> EvalValueComparison(CompOp op, const Sequence& lhs,
                                     const Sequence& rhs);

/// Evaluates a general comparison (=, !=, <, <=, >, >=): existential over
/// the atomized operand pairs, with the dynamic-cast rules (untyped vs
/// numeric casts to xs:double; untyped vs untyped/string compares as
/// strings; untyped vs boolean casts to boolean).
Result<bool> EvalGeneralComparison(CompOp op, const Sequence& lhs,
                                   const Sequence& rhs);

/// Node comparisons (is / isnot / << / >>). Operands must each be () or a
/// single node; () yields ().
Result<Sequence> EvalNodeComparison(CompOp op, const Sequence& lhs,
                                    const Sequence& rhs);

/// `lhs union rhs`, `lhs intersect rhs` or `lhs except rhs` as `e` (a
/// union or intersect/except expression) says: nodes only, in document
/// order, without duplicates.
Result<Sequence> EvalSetOperation(const Expr& e, const Sequence& lhs,
                                  const Sequence& rhs);

/// Total ordering used by "order by", fn:min and fn:max: untypedAtomic is
/// cast to double when the other side is numeric, otherwise compared as
/// string; NaN sorts before all other numbers; the empty sequence is
/// handled by the caller (empty greatest/least).
Result<CmpResult> CompareForOrdering(const AtomicValue& a,
                                     const AtomicValue& b);

}  // namespace xqp

#endif  // XQP_EXEC_COMPARE_H_
