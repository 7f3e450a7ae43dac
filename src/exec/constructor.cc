#include "exec/constructor.h"

#include "base/string_util.h"

namespace xqp {
namespace construct {

std::string AtomizedString(const Sequence& seq) {
  std::string out;
  bool first = true;
  for (const Item& item : seq) {
    if (!first) out.push_back(' ');
    out += item.Atomized().Lexical();
    first = false;
  }
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

Result<Item> Element(const QName& name,
                     const std::vector<ElementCtorExpr::NsDecl>& ns_decls,
                     const std::vector<Sequence>& content_parts,
                     DynamicContext* ctx) {
  DocumentBuilder builder;
  XQP_RETURN_NOT_OK(builder.BeginElement(name));
  for (const auto& d : ns_decls) {
    XQP_RETURN_NOT_OK(builder.NamespaceDecl(d.prefix, d.uri));
  }
  for (const Sequence& part : content_parts) {
    XQP_RETURN_NOT_OK(AppendContentPart(&builder, part,
                                        /*allow_attributes=*/true));
  }
  XQP_RETURN_NOT_OK(builder.EndElement());
  XQP_ASSIGN_OR_RETURN(std::shared_ptr<Document> doc, builder.Finish());
  if (ctx != nullptr) {
    ++ctx->stats.documents_built;
    ctx->stats.nodes_constructed += doc->NumNodes();
  }
  return Item(Node(std::move(doc), 1));
}

Result<Item> Attribute(const QName& name,
                       const std::vector<Sequence>& value_parts,
                       DynamicContext* ctx) {
  std::string value;
  for (const Sequence& part : value_parts) value += AtomizedString(part);
  DocumentBuilder builder;
  XQP_RETURN_NOT_OK(builder.OrphanAttribute(name, value));
  XQP_ASSIGN_OR_RETURN(std::shared_ptr<Document> doc, builder.Finish());
  if (ctx != nullptr) {
    ++ctx->stats.documents_built;
    ++ctx->stats.nodes_constructed;
  }
  return Item(Node(std::move(doc), 1));
}

Result<Sequence> Text(const Sequence& content, DynamicContext* ctx) {
  if (content.empty()) return Sequence{};
  std::string value = AtomizedString(content);
  DocumentBuilder builder;
  XQP_RETURN_NOT_OK(builder.Text(value));
  XQP_ASSIGN_OR_RETURN(std::shared_ptr<Document> doc, builder.Finish());
  if (doc->NumNodes() < 2) return Sequence{};  // Empty text dropped.
  if (ctx != nullptr) {
    ++ctx->stats.documents_built;
    ++ctx->stats.nodes_constructed;
  }
  return Sequence{Item(Node(std::move(doc), 1))};
}

Result<Item> Comment(const Sequence& content, DynamicContext* ctx) {
  std::string value = AtomizedString(content);
  if (value.find("--") != std::string::npos || (!value.empty() && value.back() == '-')) {
    return Status::DynamicError("comment content may not contain \"--\"");
  }
  DocumentBuilder builder;
  XQP_RETURN_NOT_OK(builder.Comment(value));
  XQP_ASSIGN_OR_RETURN(std::shared_ptr<Document> doc, builder.Finish());
  if (ctx != nullptr) {
    ++ctx->stats.documents_built;
    ++ctx->stats.nodes_constructed;
  }
  return Item(Node(std::move(doc), 1));
}

Result<Item> Pi(const std::string& target, const Sequence& content,
                DynamicContext* ctx) {
  std::string value = AtomizedString(content);
  DocumentBuilder builder;
  XQP_RETURN_NOT_OK(builder.ProcessingInstruction(target, value));
  XQP_ASSIGN_OR_RETURN(std::shared_ptr<Document> doc, builder.Finish());
  if (ctx != nullptr) {
    ++ctx->stats.documents_built;
    ++ctx->stats.nodes_constructed;
  }
  return Item(Node(std::move(doc), 1));
}

Result<Item> DocumentNode(const std::vector<Sequence>& content_parts,
                          DynamicContext* ctx) {
  DocumentBuilder builder;
  for (const Sequence& part : content_parts) {
    XQP_RETURN_NOT_OK(AppendContentPart(&builder, part,
                                        /*allow_attributes=*/false));
  }
  XQP_ASSIGN_OR_RETURN(std::shared_ptr<Document> doc, builder.Finish());
  if (ctx != nullptr) {
    ++ctx->stats.documents_built;
    ctx->stats.nodes_constructed += doc->NumNodes();
  }
  return Item(Node(std::move(doc), 0));
}

}  // namespace construct
}  // namespace xqp
