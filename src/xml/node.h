#ifndef XQP_XML_NODE_H_
#define XQP_XML_NODE_H_

#include <memory>
#include <string>

#include "xml/document.h"

namespace xqp {

/// Lightweight handle to one node of an immutable Document. Holds shared
/// ownership of the document so query results outlive their engine. A
/// default-constructed Node is "null" (used as the not-found sentinel by the
/// navigation accessors).
class Node {
 public:
  Node() = default;
  Node(std::shared_ptr<const Document> doc, NodeIndex index)
      : doc_(std::move(doc)), index_(index) {}

  bool IsNull() const { return doc_ == nullptr; }
  explicit operator bool() const { return !IsNull(); }

  const Document& doc() const { return *doc_; }
  const std::shared_ptr<const Document>& doc_ptr() const { return doc_; }
  NodeIndex index() const { return index_; }

  NodeKind kind() const { return record().kind; }
  uint16_t level() const { return record().level; }
  bool HasName() const { return record().name_id != kNoName; }
  const QName& name() const { return doc_->name(index_); }
  std::string_view value() const { return doc_->value(index_); }

  /// XDM accessors (paper, "Node accessors" slide).
  std::string StringValue() const { return doc_->StringValue(index_); }
  AtomicValue TypedValue() const { return doc_->TypedValue(index_); }

  Node Parent() const { return At(record().parent); }
  Node FirstChild() const { return At(record().first_child); }
  Node NextSibling() const { return At(record().next_sibling); }
  Node FirstAttribute() const { return At(record().first_attr); }

  /// Root of the containing tree: the topmost ancestor-or-self. That is the
  /// document node for parsed documents and document constructors, and the
  /// constructed node itself for the other constructors.
  Node Root() const {
    NodeIndex i = index_;
    while (doc_->node(i).parent != kNullNode) i = doc_->node(i).parent;
    return Node(doc_, i);
  }

  /// Node identity ("is" operator).
  bool SameNode(const Node& other) const {
    return doc_.get() == other.doc_.get() && index_ == other.index_;
  }

  /// Total document order: within one document by region start label;
  /// across documents by document id (stable, implementation-defined, as
  /// the spec allows). Returns <0, 0, >0.
  static int CompareDocOrder(const Node& a, const Node& b) {
    if (a.doc_.get() != b.doc_.get()) {
      return a.doc_->id() < b.doc_->id() ? -1 : 1;
    }
    if (a.index_ == b.index_) return 0;
    return a.index_ < b.index_ ? -1 : 1;
  }

  /// True if this node is an ancestor of `other` (region containment test).
  bool IsAncestorOf(const Node& other) const {
    return doc_.get() == other.doc_.get() && index_ < other.index_ &&
           other.index_ <= record().end;
  }

  friend bool operator==(const Node& a, const Node& b) { return a.SameNode(b); }

 private:
  const NodeRecord& record() const { return doc_->node(index_); }
  Node At(NodeIndex i) const {
    return i == kNullNode ? Node() : Node(doc_, i);
  }

  std::shared_ptr<const Document> doc_;
  NodeIndex index_ = kNullNode;
};

}  // namespace xqp

#endif  // XQP_XML_NODE_H_
