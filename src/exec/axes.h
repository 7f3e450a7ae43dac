#ifndef XQP_EXEC_AXES_H_
#define XQP_EXEC_AXES_H_

#include <optional>
#include <span>

#include "exec/item.h"
#include "query/expr.h"
#include "xml/node.h"

namespace xqp {

class DynamicContext;

/// The answer of a named descendant / descendant-or-self step from
/// `origin`, sliced from the tag postings of origin's document: the
/// descendants of n are rows (n, end(n)] and a posting list is sorted by
/// row, so two binary searches bound the run. Returns nullopt — the caller
/// scans rows instead — when `ctx` (or its provider) is null, the step is
/// another axis, a wildcard or a kind test, ctx->force_access_path is kNav,
/// or the provider holds no built tag index for this very document (arena
/// trees, parsed messages, documents whose index was never built or was
/// dropped by a re-registration). A name the index does not hold answers an
/// empty slice. The index is peeked once per document per run and memoised
/// on `ctx`, which keeps it alive for the span's lifetime; nothing is built.
/// Counts join.postings.slices / join.postings.declined when metrics are on.
std::optional<std::span<const NodeIndex>> DescendantPostings(
    const Node& origin, Axis axis, const NodeTest& test, DynamicContext* ctx);

/// Streaming cursor over one axis from one origin node, filtered by a node
/// test. Forward axes deliver document order; reverse axes deliver reverse
/// document order (the order XPath predicates count in). The caller owns
/// origin's document for the cursor's lifetime. With a context, a named
/// descendant step reads DescendantPostings' slice instead of scanning.
class AxisCursor {
 public:
  AxisCursor(const Node& origin, Axis axis, const NodeTest* test,
             DynamicContext* ctx = nullptr);

  /// Advances to the next matching node. Returns false at axis end.
  bool Next(Node* out);

 private:
  bool Candidate(NodeIndex* out);
  bool Matches(NodeIndex i) const;

  Node origin_;
  Axis axis_;
  const NodeTest* test_;
  // Walk state.
  NodeIndex current_ = kNullNode;
  NodeIndex scan_ = kNullNode;       // For range-scan axes.
  NodeIndex scan_end_ = kNullNode;   // Inclusive.
  bool done_ = false;
  bool include_self_pending_ = false;
  // The posting slice still to deliver, when the step was sliced.
  std::optional<std::span<const NodeIndex>> slice_;
};

/// The node a leading '/' selects from context item `item`: the root of
/// its tree, which must be a document node (err:XPDY0050 otherwise; the
/// trees of non-document constructors are rooted at the constructed node).
/// Every backend lowers '/' through this, so the errors are identical.
Result<Item> SlashRoot(const Item& item);

/// The tail every backend applies to one path level's concatenated
/// result: a mix of nodes and atomic values is a type error, and nodes are
/// put in document order as `path`'s needs_sort / needs_dedup flags say.
Status FinishPathResult(const PathExpr& path, Sequence* out);

/// Appends all nodes selected by `axis`/`test` from `origin` to `out`
/// (the eager interpreter's and the VM's step; `ctx` as for AxisCursor).
void CollectAxis(const Node& origin, Axis axis, const NodeTest& test,
                 Sequence* out, DynamicContext* ctx = nullptr);

}  // namespace xqp

#endif  // XQP_EXEC_AXES_H_
