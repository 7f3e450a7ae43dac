#ifndef XQP_OPT_ACCESS_PATH_H_
#define XQP_OPT_ACCESS_PATH_H_

#include <functional>
#include <memory>
#include <optional>
#include <string>

#include "exec/dynamic_context.h"
#include "index/index_planner.h"
#include "opt/cost.h"
#include "query/expr.h"

namespace xqp {

/// Outcome of access-path selection for one doc()-anchored chain.
struct AccessPathDecision {
  AccessPath chosen = AccessPath::kNav;
  /// True when a non-auto override (EngineOptions::force_access_path /
  /// XQP_ACCESS_PATH) made the choice instead of the cost model.
  bool forced = false;
  CardEstimate card;
  AccessPathCosts costs;
};

/// Picks the strategy for `q`. A forced (non-auto) strategy wins
/// unconditionally — the executor degrades inapplicable forces to
/// navigation, so results stay bit-identical. Under kAuto the cheapest
/// applicable candidate wins; candidates are compared in the order nav,
/// sjoin, twig, index with `<=`, so exact ties go to the most index-backed
/// strategy.
AccessPathDecision ChooseAccessPath(const DocumentIndexes& idx,
                                    const IndexQuery& q, AccessPath force);

/// Execution hook shared by the lazy iterator tree, the eager interpreter,
/// and the VM's probe opcodes: plans `e`, fetches the document's
/// indexes through ctx->provider, chooses an access path (honoring
/// ctx->force_access_path), and runs the chosen executor. Returns nullopt
/// (not an error) whenever any stage declines — the normal navigation plan
/// then reproduces today's results and errors bit-identically. Resource
/// trips and injected faults from governed index builds propagate. Charges
/// the materialized answer to ctx->governor.
Result<std::optional<Sequence>> TryExecuteAccessPath(const PathExpr* e,
                                                     DynamicContext* ctx);

/// Compile-time probe of already-built indexes: returns the cached
/// DocumentIndexes for a URI or null, and must never build — compile-time
/// annotation must not charge index construction to a governor or trip
/// injected build faults (those belong to the first executing query).
using IndexPeek =
    std::function<std::shared_ptr<const DocumentIndexes>(const std::string&)>;

/// Walks `root` and annotates every index-candidate PathExpr with the
/// chosen access path and cardinality estimate
/// (PathExpr::access_path/access_est — EXPLAIN-only; execution re-derives
/// the decision against live indexes). Paths whose document has no cached
/// indexes yet are reset to kAuto/0. Under a forced sjoin/twig/index
/// strategy, the top path of a doc()-anchored chain the planner declines is
/// marked kNav with that strategy in PathExpr::access_declined, rendered
/// "[access: nav, forced F declined]".
void AnnotateAccessPaths(Expr* root, const IndexPeek& peek, AccessPath force);

}  // namespace xqp

#endif  // XQP_OPT_ACCESS_PATH_H_
