#ifndef XQP_EXEC_ITERATORS_H_
#define XQP_EXEC_ITERATORS_H_

#include <memory>
#include <vector>

#include "exec/dynamic_context.h"
#include "exec/lazy_seq.h"
#include "query/expr.h"

namespace xqp {

/// Compiles an expression into a pull-based iterator tree (the paper's
/// TokenIterator execution model at item granularity): open/next via
/// Reset/Next, lazy evaluation throughout, materialization only at the
/// blocking points (document-order sorts, order by, aggregates, node
/// construction). `focus` is the statically enclosing focus, owned by the
/// enclosing path or filter iterator and bound by address, or nullptr
/// outside any path or predicate, where the iterator reads the run-level
/// DynamicContext::focus when it runs (FocusOf).
Result<std::unique_ptr<ItemIterator>> CompileIterator(const Expr* e,
                                                      const FocusInfo* focus);

/// Compiles and resets `e`, returning the iterator for incremental
/// consumption (time-to-first-item measurements, experiment E1). Decorated
/// for profiling when `ctx->profile` is set.
Result<std::unique_ptr<ItemIterator>> OpenLazy(const Expr* e,
                                               DynamicContext* ctx);

/// Streaming effective boolean value: pulls at most two items.
Result<bool> StreamingEbv(ItemIterator* it);

namespace lazy_internal {

Result<std::unique_ptr<ItemIterator>> CompilePath(const PathExpr* e,
                                                  const FocusInfo* focus);
Result<std::unique_ptr<ItemIterator>> CompileStep(const StepExpr* e,
                                                  const FocusInfo* focus);
Result<std::unique_ptr<ItemIterator>> CompileFilter(const FilterExpr* e,
                                                    const FocusInfo* focus);
Result<std::unique_ptr<ItemIterator>> CompileFlwor(const FlworExpr* e,
                                                   const FocusInfo* focus);
Result<std::unique_ptr<ItemIterator>> CompileQuantified(
    const QuantifiedExpr* e, const FocusInfo* focus);

/// The focus an iterator compiled against `bound` reads under `ctx`.
inline const FocusInfo& FocusOf(const FocusInfo* bound,
                                const DynamicContext* ctx) {
  return bound != nullptr ? *bound : ctx->focus;
}

/// Drains `it` into a vector.
Result<Sequence> Drain(ItemIterator* it);

/// Closes every iterator in `its`.
inline void CloseAll(const std::vector<std::unique_ptr<ItemIterator>>& its) {
  for (const auto& it : its) it->Close();
}

}  // namespace lazy_internal

}  // namespace xqp

#endif  // XQP_EXEC_ITERATORS_H_
