#ifndef XQP_VM_COMPILER_H_
#define XQP_VM_COMPILER_H_

#include <memory>

#include "base/status.h"
#include "query/static_context.h"
#include "vm/bytecode.h"

namespace xqp {
namespace vm {

/// Lowers the (already optimized) main expression of `module` into a flat
/// bytecode Program, whole or not at all: a plan containing a construct
/// outside the ISA comes back declined (one Program::thunks entry naming
/// it, no code), never as an error — the only failure mode is the
/// "vm.compile" fault-injection site. The returned Program borrows Expr
/// pointers from `module` and must not outlive it; it is immutable and
/// safe to share across concurrent executions.
Result<std::shared_ptr<const Program>> CompileProgram(
    const ParsedModule& module);

}  // namespace vm
}  // namespace xqp

#endif  // XQP_VM_COMPILER_H_
