#ifndef XQP_EXEC_VALUE_JOIN_H_
#define XQP_EXEC_VALUE_JOIN_H_

#include <functional>
#include <optional>

#include "exec/dynamic_context.h"
#include "exec/item.h"
#include "query/expr.h"

namespace xqp {

/// The value-join executor behind `for $t in E where K op O ...` clauses
/// planned by the value-join rule (opt/rules_flwor.cc). It is shared by
/// the interpreter's EvalFlwor, the lazy FLWOR iterator and the VM's
/// kValueJoin opcode; each backend supplies the evaluator it uses for E
/// and K. Instead of re-scanning E and re-evaluating K once per outer
/// tuple, the executor builds one index per execution — a string-keyed
/// hash for `=`, a sorted xs:double array for the ordering operators —
/// memoized in the DynamicContext by join id, and answers each outer tuple
/// with one probe.
///
/// The executor answers only when its answer is provably the nested loop's:
/// any error during the build, and any key type outside the two supported
/// cases, makes it decline. A build decline holds for the rest of the
/// execution; a probe decline for that probe only. After a decline the
/// backend runs its unchanged nested loop, so results and errors are the
/// nested loop's by construction.
namespace value_join {

/// The shape of one planned clause, derived from the annotated FLWOR.
struct Spec {
  int id = -1;
  ValueJoinKind kind = ValueJoinKind::kNone;
  /// The comparison with the key operand on the left: a domain item
  /// matches when one of its keys k and one outer value o satisfy `k op o`.
  CompOp op = CompOp::kGenEq;
  int var_slot = -1;              // $t
  const Expr* domain = nullptr;   // E
  const Expr* key = nullptr;      // K, reads $t
  const Expr* outer = nullptr;    // O, does not read $t
  /// The where predicate's remaining `and` conjunct, or null when the
  /// comparison is the whole predicate. A match still has to pass it.
  const Expr* rest = nullptr;
};

/// The spec of `flwor`'s clause `ci`, which the rule planned
/// (clauses[ci].join != kNone; clause ci + 1 is its where).
Spec SpecOf(const FlworExpr& flwor, size_t ci);

/// Evaluates an expression under the caller's current bindings.
using EvalFn = std::function<Result<Sequence>(const Expr*)>;

enum class IndexState : uint8_t {
  kDeclined,  // Run the nested loop.
  kEmpty,     // E is empty: no tuples, and O is never evaluated.
  kReady,     // Probe it.
};

/// The execution's index for `spec`, built on first use: E is evaluated
/// once and K once per domain item (with $t bound in ctx->slots), the
/// governor is polled per item and the index bytes are charged to the
/// memory budget.
IndexState Prepare(const Spec& spec, DynamicContext* ctx, const EvalFn& eval);

/// The domain items matching the evaluated outer operand, in domain order
/// and each once; nullopt when this probe declines. Requires Prepare to
/// have returned kReady.
std::optional<Sequence> Probe(const Spec& spec, DynamicContext* ctx,
                              const Sequence& outer);

/// Prepare, then evaluate O with `eval` (declining on its error), then
/// Probe. nullopt when the executor declines.
std::optional<Sequence> Match(const Spec& spec, DynamicContext* ctx,
                              const EvalFn& eval);

}  // namespace value_join

}  // namespace xqp

#endif  // XQP_EXEC_VALUE_JOIN_H_
