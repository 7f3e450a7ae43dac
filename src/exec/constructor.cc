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

std::string AtomizedString(const Sequence& seq) {
  std::string out;
  AppendAtomized(seq, &out);
  return out;
}

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
  // No runtime prefix resolution in this engine: unprefixed names land in
  // no namespace; prefixed names keep the prefix with an empty URI.
  return QName("", std::string(prefix), std::string(local));
}

namespace {

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

}  // namespace

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

std::vector<const Expr*> EvaluatedChildren(const Expr& e) {
  size_t attrs_begin = 0, attrs_end = 0;
  if (e.kind() == ExprKind::kElementCtor) {
    const auto& ctor = static_cast<const ElementCtorExpr&>(e);
    attrs_begin = ctor.ContentStart();
    attrs_end = attrs_begin + DirectAttributeCount(ctor);
  }
  std::vector<const Expr*> out;
  for (size_t i = 0; i < e.NumChildren(); ++i) {
    const Expr* child = e.child(i);
    if (i < attrs_begin || i >= attrs_end) {
      out.push_back(child);
      continue;
    }
    for (size_t j = 0; j < child->NumChildren(); ++j) {
      out.push_back(child->child(j));
    }
  }
  return out;
}

std::span<const Sequence> SplitDirectAttributes(
    const ElementCtorExpr& e, std::span<const Sequence> values,
    std::vector<DirectAttribute>* attributes) {
  attributes->clear();
  const size_t start = e.ContentStart();
  const size_t count = DirectAttributeCount(e);
  size_t at = 0;
  for (size_t a = 0; a < count; ++a) {
    const auto* attr =
        static_cast<const AttributeCtorExpr*>(e.child(start + a));
    const size_t parts = attr->NumChildren();
    attributes->push_back({&attr->name, values.subspan(at, parts)});
    at += parts;
  }
  return values.subspan(at);
}

Result<Item> Element(Arena* arena, const QName& name,
                     const std::vector<ElementCtorExpr::NsDecl>& ns_decls,
                     std::span<const DirectAttribute> attributes,
                     std::span<const Sequence> content_parts) {
  return arena->Append([&](DocumentBuilder* builder) -> Status {
    XQP_RETURN_NOT_OK(builder->BeginElement(name));
    for (const auto& d : ns_decls) {
      XQP_RETURN_NOT_OK(builder->NamespaceDecl(d.prefix, d.uri));
    }
    for (const DirectAttribute& a : attributes) {
      XQP_RETURN_NOT_OK(
          builder->Attribute(*a.name, AttributeValue(a.value_parts)));
    }
    for (const Sequence& part : content_parts) {
      XQP_RETURN_NOT_OK(AppendContentPart(builder, part,
                                          /*allow_attributes=*/true));
    }
    return builder->EndElement();
  });
}

Result<Item> Attribute(Arena* arena, const QName& name,
                       std::span<const Sequence> value_parts) {
  const std::string value = AttributeValue(value_parts);
  return arena->Append([&](DocumentBuilder* builder) {
    return builder->OrphanAttribute(name, value);
  });
}

Result<Sequence> Text(Arena* arena, const Sequence& content) {
  if (content.empty()) return Sequence{};
  const std::string value = AtomizedString(content);
  if (value.empty()) return Sequence{};  // Empty text dropped.
  XQP_ASSIGN_OR_RETURN(Item item,
                       arena->Append([&](DocumentBuilder* builder) {
                         return builder->Text(value);
                       }));
  return Sequence{std::move(item)};
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
  const std::string value = AtomizedString(content);
  return arena->Append([&](DocumentBuilder* builder) {
    return builder->ProcessingInstruction(target, value);
  });
}

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

}  // namespace construct
}  // namespace xqp
