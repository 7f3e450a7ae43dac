#ifndef XQP_VM_BYTECODE_H_
#define XQP_VM_BYTECODE_H_

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "exec/item.h"
#include "exec/order_by.h"
#include "exec/value_join.h"
#include "query/expr.h"

namespace xqp {
namespace vm {

/// The instruction set of the bytecode backend: a register/stack hybrid
/// scoped to the profitable core of the language — FLWOR tuple iteration
/// (including order-by), arithmetic, comparisons, boolean logic, variable
/// refs, literals, sequence construction, builtin calls, paths, steps and
/// filters (one focus loop serves all three), index probes, and node
/// construction. A plan that contains anything else is not compiled at
/// all: the engine runs it whole on the lazy engine.
///
/// Value model: every stack cell and local register holds a full Sequence.
/// Stack cells are preallocated and assigned into (never pushed/popped as
/// vector elements), so the hot loop reuses their capacity and runs
/// allocation-free for typical numeric work.
enum class Op : uint8_t {
  kPushConst,        // a = const-pool index; push a copy of the pool entry.
  kPushEmpty,        // Push the empty sequence.
  kPushContextItem,  // Push the context item of ctx->focus (FocusItem's
                     //   error when there is none).
  kLoadLocal,        // a = slot; push a copy of local register `a`.
  kLoadGlobal,       // a = global slot; materialize and push ctx->globals[a].
  kStoreLocal,       // a = slot; pop into register `a`. flag&1: also mirror
                     //   into ctx->slots[a] for a value join to read.
  kConcat,           // a = n; pop n sequences, push their concatenation.
  kApply,            // a = operator-plan index, b = operand count. Pop b
                     //   operand values (in construct::ForEachOperand's
                     //   order: a constructor's computed name first, an
                     //   element's direct attributes as their flat value
                     //   parts) and push the plan's materializing operator
                     //   applied to them by the shared ApplyOperator
                     //   (exec/operators.h): range, unary, node
                     //   comparison, and the six node constructors. Every
                     //   backend gets the same results, governor charges
                     //   and error strings from that one function.
  kArith,            // flag = ArithOp, a = operator-plan index; pop rhs,
                     //   lhs; push the result. Singleton xs:integer
                     //   operands take the shared checked-int64 helper
                     //   (CheckedIntArith), singleton xs:doubles a direct
                     //   path; anything else goes through ApplyOperator.
  kValueCmp,         // flag = CompOp, a = operator-plan index; pop rhs,
                     //   lhs; push () or boolean. Singleton xs:integers
                     //   compare directly, else ApplyOperator.
  kGeneralCmp,       // flag = CompOp, a = operator-plan index; pop rhs,
                     //   lhs; push boolean, with kValueCmp's fast path.
  kEbv,              // Pop; push the effective boolean value as a singleton.
  kJump,             // a = target pc.
  kJumpIfFalse,      // a = target pc; pop, branch when EBV is false.
  kJumpIfTrue,       // a = target pc; pop, branch when EBV is true.
  kIterNew,          // a = iterator register; pop the domain sequence
                     //   (a FLWOR/quantifier domain or a focus loop's).
  kIterNext,         // a = iterator register, b = exit pc, c = var slot
                     //   (-1: none). Advances the iterator; at end jumps to
                     //   b, else binds the item into register c. flag&1:
                     //   mirror the binding into ctx->slots[c] (read by a
                     //   value join's domain or key). Polls the
                     //   governor (every loop back-edge lands here). An
                     //   iterator opened by kValueJoin then jumps to its
                     //   plan's skip_pc, past the join comparison.
  kBindPos,          // a = iterator register, b = pos slot; bind the 1-based
                     //   position ("at $p"). flag&1: mirror, as kIterNext.
  kFocusNext,        // a = iterator register, b = exit pc, c = last
                     //   position to visit (-1: all). The focus loop's
                     //   iter-next: the first call saves the enclosing
                     //   focus; each call binds the next item as the focus
                     //   (item, 1-based position, domain size); at the end
                     //   restores the saved focus and jumps to b. Polls the
                     //   governor like kIterNext.
  kFocusKeep,        // Pop a predicate value; when the shared keep rule
                     //   (PredicateKeeps: a singleton numeric tests the
                     //   focus position, else EBV) holds, append the focus
                     //   item to the innermost accumulator.
  kAccumNew,         // Open a result accumulator.
  kAccumAdd,         // Pop; append to the innermost accumulator.
  kAccumEnd,         // Close the innermost accumulator; push its contents.
  kCallBuiltin,      // a = Builtin id, b = argc; pop argc args, push result.
  kNavStep,          // a = path-plan index; pop the origin sequence, walk the
                     //   plan's axis/name-test over each node, push the step
                     //   output (doc-order sorted/deduped per the PathExpr's
                     //   needs_sort/needs_dedup flags; a bare step, whose
                     //   plan has no path, keeps axis order). Polls the
                     //   governor per origin item; charges bytes only for
                     //   blocking levels, mirroring the lazy PathIt.
  kPathEnd,          // a = path-plan index. The tail of a general `A/E`
                     //   focus loop: reject a result that mixes nodes and
                     //   atomic values, then sort/dedup nodes per the
                     //   PathExpr's flags (charging a blocking level's
                     //   bytes, as kNavStep).
  kAccessPath,       // a = path-plan index, b = join pc. Offer the marked
                     //   chain to the access-path selector
                     //   (TryExecuteAccessPath: synopsis, value index,
                     //   structural or twig join); when it answers, push the
                     //   result and jump to b, else fall through to the
                     //   navigation code.
  kValueJoin,        // a = join-plan index. flag 0 (open): build or fetch
                     //   the value-join executor's index; a decline jumps
                     //   to the plan's nested_pc, an empty domain opens the
                     //   plan's iterator empty and jumps to its loop_pc,
                     //   else falls through to the outer operand's code.
                     //   flag 1 (probe): pop the outer operand; an answer
                     //   opens the iterator over the matches and jumps to
                     //   loop_pc, a decline falls through to the domain
                     //   code (the unchanged nested loop).
  kPushRoot,         // Push the root of the context item ("/"); FocusItem's
                     //   and SlashRoot's errors.
  kSortOpen,         // a = sort-plan index; open an order-by buffer with one
                     //   key cell per order spec.
  kSortKey,          // a = spec index; pop the raw key sequence, atomize and
                     //   validate it (untypedAtomic compares as xs:string),
                     //   assign key cell a of the innermost open sort.
  kSortAdd,          // Pop the return value; append (current keys, value) to
                     //   the innermost sort buffer. Polls the governor — one
                     //   cooperative check per materialized tuple.
  kSortTuples,       // a = sort-plan index; stable-sort the innermost buffer
                     //   by its typed keys (ascending/descending, empty
                     //   greatest/least) and push the concatenated results
                     //   in sorted tuple order.
  kPop,              // Pop and discard.
  kHalt,             // Pop the final result and stop.
};

/// One instruction. `flag` carries the sub-operation (ArithOp / CompOp)
/// or the value-join mirror bit; a/b/c are pool indexes, pc
/// targets, and register numbers as documented per opcode.
struct Insn {
  Op op;
  uint8_t flag = 0;
  int32_t a = 0;
  int32_t b = 0;
  int32_t c = 0;
};

/// A compiled query body: flat code, the constant pool and the plan
/// tables. Immutable after compilation and shared across concurrent
/// executions; all mutable run state lives in the Vm.
struct Program {
  std::vector<Insn> code;

  /// Literal values referenced by kPushConst. Entries 0 and 1 are always
  /// the canonical singleton false/true sequences.
  std::vector<Sequence> const_pool;
  /// Estimated heap footprint of the pool, charged to the memory budget at
  /// the start of every run.
  uint64_t const_pool_bytes = 0;

  /// Empty for a compiled plan. A plan the compiler declined holds one
  /// entry, the first subtree it could not lower and why (EXPLAIN shows
  /// `[bailout: <reason>]` there), and no code: the engine runs the whole
  /// plan on the lazy engine.
  struct Thunk {
    const Expr* expr = nullptr;
    std::string reason;
  };
  std::vector<Thunk> thunks;

  /// A lowered path level referenced by kNavStep / kPathEnd / kAccessPath.
  /// `path` carries the ordering flags and (for kAccessPath) the chain
  /// handed to TryExecuteAccessPath, null for a bare step;
  /// `step` is the axis + name test kNavStep walks (null otherwise).
  struct PathPlan {
    const PathExpr* path = nullptr;
    const StepExpr* step = nullptr;
  };
  std::vector<PathPlan> paths;

  /// The materializing operators referenced by kApply, kArith, kValueCmp
  /// and kGeneralCmp: the expression ApplyOperator applies (its operator,
  /// cast target, static name, namespace declarations or pi target).
  std::vector<const Expr*> operators;

  /// The order-spec modifiers of one order-by FLWOR, in clause order;
  /// referenced by kSortOpen / kSortTuples.
  struct SortPlan {
    std::vector<flwor::OrderSpecFlags> specs;
  };
  std::vector<SortPlan> sorts;

  /// A value-join planned for clause (exec/value_join.h) and the pcs
  /// kValueJoin dispatches to: the domain code of the nested loop, the
  /// clause's kIterNext, and the instruction after the join comparison's
  /// where gate (where the rest conjunct, if any, is tested). The
  /// executor evaluates the domain and key expressions on the interpreter
  /// against ctx->slots, so the slots they read are mirrored.
  struct JoinPlan {
    value_join::Spec spec;
    int iter = 0;
    int nested_pc = 0;
    int loop_pc = 0;
    int skip_pc = 0;
  };
  std::vector<JoinPlan> joins;

  /// Register-file sizing: module frame slots, FLWOR/quantifier/focus
  /// iterator registers (allocated by loop nesting depth), and operand
  /// stack cells.
  int num_slots = 0;
  int num_iters = 0;
  int max_stack = 0;
};

constexpr int kConstFalse = 0;
constexpr int kConstTrue = 1;

}  // namespace vm
}  // namespace xqp

#endif  // XQP_VM_BYTECODE_H_
