#ifndef XQP_EXEC_AXES_H_
#define XQP_EXEC_AXES_H_

#include "exec/item.h"
#include "query/expr.h"
#include "xml/node.h"

namespace xqp {

/// Streaming cursor over one axis from one origin node, filtered by a node
/// test. Forward axes deliver document order; reverse axes deliver reverse
/// document order (the order XPath predicates count in). The caller owns
/// origin's document for the cursor's lifetime.
class AxisCursor {
 public:
  AxisCursor(const Node& origin, Axis axis, const NodeTest* test);

  /// Advances to the next matching node. Returns false at axis end.
  bool Next(Node* out);

 private:
  bool Candidate(Node* out);
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
/// (convenience for the eager interpreter and the navigation baseline).
void CollectAxis(const Node& origin, Axis axis, const NodeTest& test,
                 Sequence* out);

}  // namespace xqp

#endif  // XQP_EXEC_AXES_H_
