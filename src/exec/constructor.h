#ifndef XQP_EXEC_CONSTRUCTOR_H_
#define XQP_EXEC_CONSTRUCTOR_H_

#include <vector>

#include "exec/dynamic_context.h"
#include "exec/item.h"
#include "query/expr.h"

namespace xqp {

/// Shared node-construction semantics used by both engines. Constructors
/// copy their node content into a fresh document ("XML does not allow cut
/// and paste") and join adjacent atomic values within one enclosed
/// expression with single spaces, per the XQuery constructor rules.
namespace construct {

/// Builds an element node. `content_parts` holds the evaluated value of
/// each content child in order (attribute items must come first within the
/// concatenation). Returns the new element as an item rooted in a fresh
/// document.
Result<Item> Element(const QName& name,
                     const std::vector<ElementCtorExpr::NsDecl>& ns_decls,
                     const std::vector<Sequence>& content_parts,
                     DynamicContext* ctx);

/// Builds a parentless attribute node.
Result<Item> Attribute(const QName& name,
                       const std::vector<Sequence>& value_parts,
                       DynamicContext* ctx);

/// Builds a text node; empty content yields the empty sequence.
Result<Sequence> Text(const Sequence& content, DynamicContext* ctx);

Result<Item> Comment(const Sequence& content, DynamicContext* ctx);

Result<Item> Pi(const std::string& target, const Sequence& content,
                DynamicContext* ctx);

/// Builds a document node with the given content children.
Result<Item> DocumentNode(const std::vector<Sequence>& content_parts,
                          DynamicContext* ctx);

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
