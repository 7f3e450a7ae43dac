#ifndef XQP_EXEC_OPERATORS_H_
#define XQP_EXEC_OPERATORS_H_

#include <cstdint>
#include <optional>
#include <span>
#include <utility>

#include "exec/dynamic_context.h"
#include "exec/item.h"
#include "query/expr.h"

namespace xqp {

/// The one semantics core of the materializing operators, the ones whose
/// operands must all be evaluated before they apply: range, arithmetic,
/// unary, value/general/node comparison, cast, castable, instance of,
/// union/intersect/except, and the six node constructors. Every backend
/// evaluates the operands its own way (the lazy OperatorIt drains them,
/// the eager interpreter evaluates them, the VM leaves them on its stack)
/// and then calls ApplyOperator, so results and error strings are the same
/// by construction.
///
/// `operands` holds the raw values of `e`'s operands in
/// construct::ForEachOperand's order: `e`'s children, except that an
/// element constructor's direct attributes contribute their value parts.
/// Replaces `*out` with the result; `out` must not be one of the operands.
Status ApplyOperator(const Expr& e, std::span<const Sequence> operands,
                     DynamicContext* ctx, Sequence* out);

/// The integer bounds of `lo to hi` from its operands' values, or nullopt
/// when either operand is empty (the empty range). Each operand must be a
/// singleton castable to xs:integer.
Result<std::optional<std::pair<int64_t, int64_t>>> RangeBounds(
    const Sequence& lo, const Sequence& hi);

}  // namespace xqp

#endif  // XQP_EXEC_OPERATORS_H_
