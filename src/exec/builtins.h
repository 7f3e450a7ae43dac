#ifndef XQP_EXEC_BUILTINS_H_
#define XQP_EXEC_BUILTINS_H_

#include <vector>

#include "exec/dynamic_context.h"
#include "exec/functions.h"
#include "exec/item.h"

namespace xqp {

/// Evaluates builtin `id` over materialized argument sequences, reading
/// the caller's `focus` for position(), last() and the zero-argument
/// string functions. All three backends share this; the lazy engine
/// streams the short-circuiting builtins (empty/exists/head/boolean/not)
/// and count before falling back here. CallBuiltin owns the last() check:
/// a focus whose size a streaming lazy input has not counted (-1) fails.
Result<Sequence> CallBuiltin(Builtin id, std::vector<Sequence>& args,
                             DynamicContext* ctx, const FocusInfo& focus);

}  // namespace xqp

#endif  // XQP_EXEC_BUILTINS_H_
