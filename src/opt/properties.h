#ifndef XQP_OPT_PROPERTIES_H_
#define XQP_OPT_PROPERTIES_H_

#include <vector>

#include "query/expr.h"
#include "query/static_context.h"

namespace xqp {

/// Bottom-up dataflow analysis filling Expr::props — the paper's
/// "Xquery expression analysis" slide: doc-order/distinctness guarantees,
/// node creation, error potential, context sensitivity, constancy.
/// Must be re-run after structural rewrites (the rewriter does).
void AnalyzeExpr(Expr* e, const ParsedModule* module);

/// Recomputes the properties of `e` alone from its children's, which must
/// be fresh: the incremental step for a rewrite that changed one node.
void AnalyzeNode(Expr* e, const ParsedModule* module);

/// Counts references to frame slot `slot` within `e` (locals only).
/// `in_loop` is set when any use sits under a for-loop/quantifier/path-step
/// body relative to `e` (the paper's "used as part of a loop" test).
int CountVarUses(const Expr* e, int slot, bool* in_loop);

/// Replaces every local VarRef to `slot` in `e` with a clone of
/// `replacement`. Returns the number of substitutions.
int SubstituteVar(Expr* e, int slot, const Expr& replacement);

/// Collects every local frame slot bound by binding constructs within `e`
/// (FLWOR for/let, quantifiers, typeswitch cases).
void CollectBoundSlots(const Expr* e, std::vector<int>* slots);

/// Collects every local frame slot referenced by VarRefs within `e`.
void CollectUsedSlots(const Expr* e, std::vector<int>* slots);

/// The ddo lattice: given the order/distinct/non-nesting guarantees of a
/// path's input and the step's axis, derives the guarantees of the raw
/// (unsorted) step output. Implements the paper's "semantic conditions":
///   $doc/a/b/c    — ordered, distinct (no ddo needed)
///   $doc/a//b     — ordered, distinct
///   $doc//a/b     — NOT ordered, but distinct (dedup elidable)
///   $doc//a//b    — nothing guaranteed.
void PathStructuralFlags(const ExprProps& lhs, Axis axis, bool* ordered,
                         bool* distinct, bool* no_two_nested);

/// The StepExpr underlying `e`, looking through filter predicates; nullptr
/// when `e` is not a (filtered) step.
const StepExpr* UnderlyingStep(const Expr* e);

}  // namespace xqp

#endif  // XQP_OPT_PROPERTIES_H_
