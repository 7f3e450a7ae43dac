#include "exec/constructor.h"

#include "base/metrics.h"
#include "base/string_util.h"

namespace xqp {
namespace construct {

namespace {

/// Appends the atomized lexical forms of `seq`, joined with single spaces.
void AppendAtomized(const Sequence& seq, std::string* out) {
  bool first = true;
  for (const Item& item : seq) {
    if (!first) out->push_back(' ');
    out->append(item.Atomized().Lexical());
    first = false;
  }
}

/// An attribute value: the atomized value parts, concatenated.
std::string AttributeValue(std::span<const Sequence> value_parts) {
  std::string value;
  for (const Sequence& part : value_parts) AppendAtomized(part, &value);
  return value;
}

/// Counts `documents` documents created and `nodes` rows appended.
void Count(uint64_t documents, uint64_t nodes) {
  if (metrics::Enabled()) {
    static metrics::Counter* documents_counter =
        metrics::MetricsRegistry::Global().counter("construct.documents");
    static metrics::Counter* nodes_counter =
        metrics::MetricsRegistry::Global().counter("construct.nodes");
    documents_counter->Add(documents);
    nodes_counter->Add(nodes);
  }
}

std::string AtomizedString(const Sequence& seq) {
  std::string out;
  AppendAtomized(seq, &out);
  return out;
}

/// Runtime name resolution for computed element/attribute names: accepts an
/// xs:QName value (Clark form) or a string/untyped lexical name (no prefix
/// resolution at runtime: unprefixed names land in no namespace).
Result<QName> ComputedName(const Sequence& name_value) {
  if (name_value.size() != 1) {
    return Status::TypeError("computed constructor name must be a single item");
  }
  AtomicValue v = name_value[0].Atomized();
  std::string s = v.AsString();
  if (v.type() == XsType::kQName && !s.empty() && s[0] == '{') {
    size_t close = s.find('}');
    if (close != std::string::npos) {
      return QName(s.substr(1, close - 1), s.substr(close + 1));
    }
  }
  std::string_view prefix, local;
  SplitQName(s, &prefix, &local);
  if (!IsNCName(local)) {
    return Status::TypeError("invalid computed name: " + s);
  }
  // Prefixed names keep the prefix with an empty URI.
  return QName("", std::string(prefix), std::string(local));
}

/// The name of a constructor: `fixed`, or, when `computed`, the name
/// computed from the first operand, which is then dropped from `operands`
/// (`storage` holds it).
Result<const QName*> ConstructorName(const QName& fixed, bool computed,
                                     std::span<const Sequence>* operands,
                                     QName* storage) {
  if (!computed) return &fixed;
  XQP_ASSIGN_OR_RETURN(*storage, ComputedName(operands->front()));
  *operands = operands->subspan(1);
  return storage;
}

/// Appends one content part (the value of one enclosed expression) to the
/// builder: atomic runs join with spaces into text; nodes are deep-copied.
Status AppendContentPart(DocumentBuilder* builder, const Sequence& part,
                         bool allow_attributes) {
  std::string pending;  // Joined atomics not yet flushed.
  bool has_pending = false;
  auto flush = [&]() -> Status {
    if (has_pending) {
      XQP_RETURN_NOT_OK(builder->Text(pending));
      pending.clear();
      has_pending = false;
    }
    return Status::OK();
  };
  for (const Item& item : part) {
    if (item.IsAtomic()) {
      if (has_pending) pending.push_back(' ');
      pending += item.AsAtomic().Lexical();
      has_pending = true;
      continue;
    }
    XQP_RETURN_NOT_OK(flush());
    const Node& node = item.AsNode();
    if (node.kind() == NodeKind::kAttribute && !allow_attributes) {
      return Status::DynamicError(
          "attribute node not allowed in this content position");
    }
    XQP_RETURN_NOT_OK(builder->CopySubtree(node.doc(), node.index()));
  }
  return flush();
}

/// An element: its namespace declarations, then its direct attributes from
/// the leading operands (one per value part), then the remaining operands
/// as content.
Result<Item> Element(Arena* arena, const ElementCtorExpr& e, const QName& name,
                     std::span<const Sequence> operands) {
  const size_t first_attr = e.ContentStart();
  const size_t attrs = DirectAttributeCount(e);
  return arena->Append([&](DocumentBuilder* builder) -> Status {
    XQP_RETURN_NOT_OK(builder->BeginElement(name));
    for (const auto& d : e.ns_decls) {
      XQP_RETURN_NOT_OK(builder->NamespaceDecl(d.prefix, d.uri));
    }
    size_t at = 0;
    for (size_t a = 0; a < attrs; ++a) {
      const auto& attr =
          static_cast<const AttributeCtorExpr&>(*e.child(first_attr + a));
      const size_t parts = attr.NumChildren();
      XQP_RETURN_NOT_OK(builder->Attribute(
          attr.name, AttributeValue(operands.subspan(at, parts))));
      at += parts;
    }
    for (const Sequence& part : operands.subspan(at)) {
      XQP_RETURN_NOT_OK(AppendContentPart(builder, part,
                                          /*allow_attributes=*/true));
    }
    return builder->EndElement();
  });
}

/// A parentless attribute (computed attributes and attribute constructors
/// inside enclosed expressions).
Result<Item> Attribute(Arena* arena, const QName& name,
                       std::span<const Sequence> value_parts) {
  const std::string value = AttributeValue(value_parts);
  return arena->Append([&](DocumentBuilder* builder) {
    return builder->OrphanAttribute(name, value);
  });
}

Result<Item> Comment(Arena* arena, const Sequence& content) {
  const std::string value = AtomizedString(content);
  if (value.find("--") != std::string::npos || (!value.empty() && value.back() == '-')) {
    return Status::DynamicError("comment content may not contain \"--\"");
  }
  return arena->Append(
      [&](DocumentBuilder* builder) { return builder->Comment(value); });
}

Result<Item> Pi(Arena* arena, const std::string& target,
                const Sequence& content) {
  if (IsReservedPiTarget(target)) {
    return Status::DynamicError(
        "err:XQDY0064: processing-instruction target may not be 'xml'");
  }
  const std::string value = AtomizedString(content);
  return arena->Append([&](DocumentBuilder* builder) {
    return builder->ProcessingInstruction(target, value);
  });
}

/// A document node in a Document of its own: its tree is rooted at a
/// document node, which the arena's row 0 is reserved for.
Result<Item> DocumentNode(Arena* arena,
                          std::span<const Sequence> content_parts) {
  DocumentBuilder builder;
  for (const Sequence& part : content_parts) {
    XQP_RETURN_NOT_OK(AppendContentPart(&builder, part,
                                        /*allow_attributes=*/false));
  }
  XQP_ASSIGN_OR_RETURN(std::shared_ptr<Document> doc, builder.Finish());
  Count(1, doc->NumNodes());
  arena->Seal();
  return Item(Node(std::move(doc), 0));
}

/// Makes `*out` the one node `built`, or returns its error.
Status One(Result<Item> built, Sequence* out) {
  XQP_RETURN_NOT_OK(built.status());
  out->push_back(std::move(built).value());
  return Status::OK();
}

}  // namespace

DocumentBuilder& Arena::Builder() {
  if (!builder_) {
    builder_.emplace();
    Count(1, 0);
  }
  return *builder_;
}

Result<Item> Arena::EndTree(NodeIndex root) {
  XQP_RETURN_NOT_OK(builder_->EndTree(root));
  Count(0, builder_->NumNodes() - root);
  Item tree(Node(builder_->document(), root));
  if (builder_->NumNodes() >= kSealRows) Seal();
  return tree;
}

size_t DirectAttributeCount(const ElementCtorExpr& e) {
  size_t count = 0;
  for (size_t i = e.ContentStart(); i < e.NumChildren(); ++i, ++count) {
    const Expr* child = e.child(i);
    if (child->kind() != ExprKind::kAttributeCtor ||
        static_cast<const AttributeCtorExpr*>(child)->computed_name) {
      break;
    }
  }
  return count;
}

Status Build(const Expr& e, std::span<const Sequence> operands, Arena* arena,
             Sequence* out) {
  out->clear();
  QName computed;
  switch (e.kind()) {
    case ExprKind::kElementCtor: {
      const auto& ctor = static_cast<const ElementCtorExpr&>(e);
      XQP_ASSIGN_OR_RETURN(
          const QName* name,
          ConstructorName(ctor.name, ctor.computed_name, &operands, &computed));
      return One(Element(arena, ctor, *name, operands), out);
    }
    case ExprKind::kAttributeCtor: {
      const auto& ctor = static_cast<const AttributeCtorExpr&>(e);
      XQP_ASSIGN_OR_RETURN(
          const QName* name,
          ConstructorName(ctor.name, ctor.computed_name, &operands, &computed));
      return One(Attribute(arena, *name, operands), out);
    }
    case ExprKind::kTextCtor: {
      const std::string value = AtomizedString(operands[0]);
      if (value.empty()) return Status::OK();  // Empty text is dropped.
      return One(arena->Append([&](DocumentBuilder* builder) {
                   return builder->Text(value);
                 }),
                 out);
    }
    case ExprKind::kCommentCtor:
      return One(Comment(arena, operands[0]), out);
    case ExprKind::kPiCtor:
      return One(Pi(arena, static_cast<const PiCtorExpr&>(e).target,
                    operands[0]),
                 out);
    case ExprKind::kDocumentCtor:
      return One(DocumentNode(arena, operands), out);
    default:
      return Status::Internal("not a constructor");
  }
}

}  // namespace construct
}  // namespace xqp
