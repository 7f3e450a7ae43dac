#ifndef XQP_VM_VM_H_
#define XQP_VM_VM_H_

#include "base/status.h"
#include "exec/dynamic_context.h"
#include "vm/bytecode.h"

namespace xqp {
namespace vm {

/// Executes `program` under `ctx` and returns the materialized result.
/// The program is shared and immutable; all mutable run state (operand
/// stack, registers, iterators, focus) is per-call, so one
/// Program may run concurrently from many threads. The governor in
/// `ctx` (if any) is polled at every loop back-edge. Callers charge the
/// constant-pool bytes and the result items (the engine does both).
Result<Sequence> RunProgram(const Program& program, DynamicContext* ctx);

}  // namespace vm
}  // namespace xqp

#endif  // XQP_VM_VM_H_
