#ifndef XQP_OPT_INLINE_FUNCTIONS_H_
#define XQP_OPT_INLINE_FUNCTIONS_H_

#include "base/status.h"
#include "query/static_context.h"

namespace xqp {

namespace opt_internal {

/// One bottom-up expansion pass over `e`: every call to a non-recursive
/// user function whose body has at most `inline_size_limit` expression
/// nodes is replaced by a slot-remapped clone of the body, with arguments
/// let-bound (declared parameter types keep their dynamic check as
/// treat-as). Fresh slots are drawn from `*next_slot`. Returns the number
/// of calls expanded; calls exposed by an expansion (a callee's own calls)
/// are left for a later pass.
Result<int> InlineFunctionCalls(ExprPtr& e, const ParsedModule& module,
                                int inline_size_limit, int* next_slot);

}  // namespace opt_internal

/// Pre-lowering pass over the module body: repeats InlineFunctionCalls
/// until no eligible call site remains, so call chains deeper than the
/// rewriter's max_passes still flatten completely before the bytecode
/// compiler runs (a kFunctionCall to a user function otherwise makes the
/// VM decline the whole plan). Extends module->num_slots with the
/// frames of the spliced bodies. Returns the total number of calls
/// expanded.
Result<int> InlineSmallFunctions(ParsedModule* module, int inline_size_limit);

}  // namespace xqp

#endif  // XQP_OPT_INLINE_FUNCTIONS_H_
