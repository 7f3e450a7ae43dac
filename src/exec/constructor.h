#ifndef XQP_EXEC_CONSTRUCTOR_H_
#define XQP_EXEC_CONSTRUCTOR_H_

#include <optional>
#include <span>
#include <vector>

#include "exec/item.h"
#include "exec/profile.h"
#include "query/expr.h"

namespace xqp {

/// Shared node-construction semantics used by every backend. Constructors
/// copy their node content ("XML does not allow cut and paste") and join
/// adjacent atomic values within one enclosed expression with single spaces,
/// per the XQuery constructor rules. Element, attribute, text, comment and
/// PI constructors append their tree to the execution's Arena; a document
/// constructor builds a Document of its own. With metrics enabled, the
/// registry counters `construct.documents` and `construct.nodes` count the
/// documents created and the rows appended to them, copied rows included.
namespace construct {

/// One execution's construction arena (DynamicContext::arena). The first
/// constructor that runs creates its Document, whose row 0 is a hidden
/// document node that no constructed node reaches. Each element,
/// attribute, text, comment or PI constructor appends its parentless tree
/// there and returns Node(arena document, root row), so a constructed node
/// costs rows, not a document. Content that already lives in the arena is
/// copied as a row block without re-interning (DocumentBuilder::
/// CopySubtree). Trees are appended one at a time: every backend evaluates
/// a constructor's content before it builds, so no tree is open while
/// another is built. Once a document holds kSealRows rows the arena seals
/// it and the next tree starts a new one, so a long streaming run does not
/// keep everything it ever built: a sealed document is freed with the last
/// node into it. Copies across that boundary take the from-another-document
/// path, and a newer document orders after an older one.
class Arena {
 public:
  /// Row count at which the current document is sealed.
  static constexpr NodeIndex kSealRows = 64 * 1024;

  /// Appends one tree: `append` writes its single top-level node, with its
  /// subtree, into the builder. On failure the tree's rows are dropped.
  template <typename AppendFn>
  Result<Item> Append(AppendFn&& append) {
    DocumentBuilder& builder = Builder();
    const NodeIndex root = static_cast<NodeIndex>(builder.NumNodes());
    if (Status st = append(&builder); !st.ok()) {
      builder.AbandonTree(root);
      return st;
    }
    return EndTree(root);
  }

  /// Closes the current document to appends; the next tree starts a new
  /// one. DocumentNode calls this so that trees built after a document
  /// constructor order after it (documents order by creation).
  void Seal() { builder_.reset(); }

 private:
  DocumentBuilder& Builder();
  Result<Item> EndTree(NodeIndex root);

  std::optional<DocumentBuilder> builder_;
};

/// Number of direct attributes of `e`: its leading content children (after
/// a computed name) that are attribute constructors with a static name.
/// An element constructor writes them straight into its own rows from
/// their evaluated value parts, instead of building a parentless attribute
/// and copying it.
size_t DirectAttributeCount(const ElementCtorExpr& e);

/// Calls `fn(const Expr*)` for each operand a backend evaluates for the
/// materializing operator `e`, in order: its children, except that an
/// element constructor's direct attributes contribute their value parts,
/// inside an InlineOpScope that gives the attribute its own profile row.
/// Stops at, and returns, the first error.
template <typename Fn>
Status ForEachOperand(const Expr& e, QueryProfile* profile, Fn&& fn) {
  size_t attrs_begin = 0, attrs_end = 0;
  if (e.kind() == ExprKind::kElementCtor) {
    const auto& ctor = static_cast<const ElementCtorExpr&>(e);
    attrs_begin = ctor.ContentStart();
    attrs_end = attrs_begin + DirectAttributeCount(ctor);
  }
  for (size_t i = 0; i < e.NumChildren(); ++i) {
    const Expr* child = e.child(i);
    if (i < attrs_begin || i >= attrs_end) {
      XQP_RETURN_NOT_OK(fn(child));
      continue;
    }
    InlineOpScope profiled(profile, child);
    for (size_t j = 0; j < child->NumChildren(); ++j) {
      XQP_RETURN_NOT_OK(fn(child->child(j)));
    }
  }
  return Status::OK();
}

/// Builds the node of constructor `e` from the values of its operands, in
/// ForEachOperand's order, into `arena`, and replaces `*out` with it (a
/// text constructor with empty content yields the empty sequence): a
/// computed name comes first; an element writes its namespace
/// declarations, then its direct attributes, then the remaining operands
/// as content (attribute items must come first within their
/// concatenation). A document constructor builds a Document of its own
/// and seals `arena`. `out` must not be one of the operands.
Status Build(const Expr& e, std::span<const Sequence> operands, Arena* arena,
             Sequence* out);

}  // namespace construct

}  // namespace xqp

#endif  // XQP_EXEC_CONSTRUCTOR_H_
