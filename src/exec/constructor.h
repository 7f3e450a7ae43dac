#ifndef XQP_EXEC_CONSTRUCTOR_H_
#define XQP_EXEC_CONSTRUCTOR_H_

#include <optional>
#include <span>
#include <vector>

#include "exec/item.h"
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

/// A direct attribute of an element constructor: a non-computed attribute
/// constructor among the element's leading content children. Element
/// writes it straight into the element's rows from its evaluated value
/// parts, instead of building a parentless attribute and copying it.
struct DirectAttribute {
  const QName* name;
  std::span<const Sequence> value_parts;
};

/// Number of direct attributes of `e`: its leading content children (after
/// a computed name) that are attribute constructors with a static name.
size_t DirectAttributeCount(const ElementCtorExpr& e);

/// The expressions a backend evaluates for constructor `e`, in order: its
/// children, except that an element's direct attributes contribute their
/// value parts (the layout SplitDirectAttributes expects).
std::vector<const Expr*> EvaluatedChildren(const Expr& e);

/// Backends evaluate an element constructor's content into one flat list:
/// the value parts of each direct attribute in order (one per child of the
/// attribute constructor), then the value of every other content child.
/// Splits `values` along `e`'s direct attributes into `attributes` and
/// returns the content parts.
std::span<const Sequence> SplitDirectAttributes(
    const ElementCtorExpr& e, std::span<const Sequence> values,
    std::vector<DirectAttribute>* attributes);

/// Builds an element node: the namespace declarations, then the direct
/// attributes, then `content_parts`, the evaluated value of each remaining
/// content child in order (attribute items must come first within the
/// concatenation). Returns the new element as a parentless node.
Result<Item> Element(Arena* arena, const QName& name,
                     const std::vector<ElementCtorExpr::NsDecl>& ns_decls,
                     std::span<const DirectAttribute> attributes,
                     std::span<const Sequence> content_parts);

/// Builds a parentless attribute node (computed attributes and attribute
/// constructors inside enclosed expressions).
Result<Item> Attribute(Arena* arena, const QName& name,
                       std::span<const Sequence> value_parts);

/// Builds a text node; empty content yields the empty sequence.
Result<Sequence> Text(Arena* arena, const Sequence& content);

Result<Item> Comment(Arena* arena, const Sequence& content);

Result<Item> Pi(Arena* arena, const std::string& target,
                const Sequence& content);

/// Builds a document node with the given content children, in a Document
/// of its own: its tree is rooted at a document node, which the arena's
/// row 0 is reserved for. Seals `arena`.
Result<Item> DocumentNode(Arena* arena,
                          std::span<const Sequence> content_parts);

/// Joins the atomized lexical forms of `seq` with single spaces (the
/// attribute-value and text-content rule).
std::string AtomizedString(const Sequence& seq);

/// Runtime name resolution for computed element/attribute names: accepts an
/// xs:QName value (Clark form) or a string/untyped lexical name (no prefix
/// resolution at runtime — unprefixed names land in no namespace).
Result<QName> ComputedName(const Sequence& name_value);

}  // namespace construct

}  // namespace xqp

#endif  // XQP_EXEC_CONSTRUCTOR_H_
