#ifndef XQP_EXEC_CONSTRUCTOR_H_
#define XQP_EXEC_CONSTRUCTOR_H_

#include <span>
#include <vector>

#include "exec/item.h"
#include "query/expr.h"

namespace xqp {

/// Shared node-construction semantics used by every backend. Constructors
/// copy their node content into a fresh document ("XML does not allow cut
/// and paste") and join adjacent atomic values within one enclosed
/// expression with single spaces, per the XQuery constructor rules. Each
/// constructed node costs one DocumentBuilder; with metrics enabled, the
/// registry counters `construct.documents` and `construct.nodes` count the
/// documents built and the nodes in them.
namespace construct {

/// A direct attribute of an element constructor: a non-computed attribute
/// constructor among the element's leading content children. Element
/// writes it straight into the element's builder from its evaluated value
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
Result<Item> Element(const QName& name,
                     const std::vector<ElementCtorExpr::NsDecl>& ns_decls,
                     std::span<const DirectAttribute> attributes,
                     std::span<const Sequence> content_parts);

/// Builds a parentless attribute node (computed attributes and attribute
/// constructors inside enclosed expressions).
Result<Item> Attribute(const QName& name,
                       std::span<const Sequence> value_parts);

/// Builds a text node; empty content yields the empty sequence.
Result<Sequence> Text(const Sequence& content);

Result<Item> Comment(const Sequence& content);

Result<Item> Pi(const std::string& target, const Sequence& content);

/// Builds a document node with the given content children.
Result<Item> DocumentNode(std::span<const Sequence> content_parts);

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
