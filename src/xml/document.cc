#include "xml/document.h"

#include <algorithm>
#include <atomic>

#include "base/fault.h"
#include "base/limits.h"
#include "base/string_util.h"
#include "xml/pull_parser.h"

namespace xqp {

std::string_view NodeKindName(NodeKind k) {
  switch (k) {
    case NodeKind::kDocument:
      return "document";
    case NodeKind::kElement:
      return "element";
    case NodeKind::kAttribute:
      return "attribute";
    case NodeKind::kText:
      return "text";
    case NodeKind::kComment:
      return "comment";
    case NodeKind::kProcessingInstruction:
      return "processing-instruction";
  }
  return "unknown";
}

namespace {
std::atomic<uint64_t> g_next_document_id{1};
}  // namespace

Document::Document() : id_(g_next_document_id.fetch_add(1)) {}

NodeIndex Document::root_element() const {
  if (nodes_count_ == 0) return kNullNode;
  for (NodeIndex c = nodes_data_[0].first_child; c != kNullNode;
       c = nodes_data_[c].next_sibling) {
    if (nodes_data_[c].kind == NodeKind::kElement) return c;
  }
  return kNullNode;
}

uint32_t Document::FindNameId(std::string_view uri,
                              std::string_view local) const {
  QName key{std::string(uri), std::string(local)};
  auto it = name_index_.find(key);
  return it == name_index_.end() ? kNoName : it->second;
}

std::string Document::StringValue(NodeIndex i) const {
  const NodeRecord& n = nodes_data_[i];
  switch (n.kind) {
    case NodeKind::kAttribute:
    case NodeKind::kText:
    case NodeKind::kComment:
    case NodeKind::kProcessingInstruction:
      return std::string(value(i));
    case NodeKind::kDocument:
    case NodeKind::kElement: {
      std::string out;
      // All descendants lie in the index range (i, n.end]; collect text.
      for (NodeIndex d = i + 1; d <= n.end && d < nodes_count_; ++d) {
        if (nodes_data_[d].kind == NodeKind::kText) out.append(value(d));
      }
      return out;
    }
  }
  return std::string();
}

const std::vector<Document::NsDecl>* Document::NamespaceDecls(
    NodeIndex i) const {
  auto it = ns_decls_.find(i);
  return it == ns_decls_.end() ? nullptr : &it->second;
}

size_t Document::MemoryUsage() const {
  // Snapshot-loaded documents own no node vector; count the mapped table.
  size_t bytes =
      std::max(nodes_.capacity(), nodes_count_) * sizeof(NodeRecord);
  bytes += pool_.MemoryUsage();
  for (const QName& q : names_) {
    bytes += q.uri.capacity() + q.prefix.capacity() + q.local.capacity() +
             sizeof(QName);
  }
  return bytes;
}

Result<std::shared_ptr<Document>> Document::Parse(std::string_view xml,
                                                  const ParseOptions& options) {
  XmlPullParser parser(xml, options);
  DocumentBuilder builder(options);
  builder.ReserveForInput(xml.size());
  // Builder-detected violations (e.g. duplicate attributes) are dynamic
  // errors in constructor contexts but well-formedness errors here.
  auto as_parse_error = [](Status st) {
    if (st.ok() || st.code() == StatusCode::kParseError) return st;
    return Status::ParseError(st.message());
  };
  // Memoized name interning: the parser stamps each distinct resolved name
  // with a dense token, so every name is hashed into the builder's name
  // table exactly once (stored as name_id + 1; 0 = unseen). Intern order is
  // unchanged, so name ids are identical to interning per event.
  std::vector<uint32_t> name_ids;
  auto name_id_for = [&](uint32_t token, const QName& name) -> uint32_t {
    if (token >= name_ids.size()) name_ids.resize(token + 1, 0);
    if (name_ids[token] == 0) {
      name_ids[token] = builder.InternNameId(name) + 1;
    }
    return name_ids[token] - 1;
  };
  while (true) {
    XQP_ASSIGN_OR_RETURN(const XmlEvent* event, parser.Next());
    if (event == nullptr) break;
    switch (event->type) {
      case XmlEventType::kStartDocument:
      case XmlEventType::kEndDocument:
        break;
      case XmlEventType::kStartElement: {
        XQP_RETURN_NOT_OK(as_parse_error(builder.BeginElement(
            name_id_for(event->name_token, event->name))));
        for (const XmlNamespaceDecl& ns : event->ns_decls) {
          XQP_RETURN_NOT_OK(
              as_parse_error(builder.NamespaceDecl(ns.prefix, ns.uri)));
        }
        for (const XmlAttribute& attr : event->attributes) {
          XQP_RETURN_NOT_OK(as_parse_error(builder.Attribute(
              name_id_for(attr.name_token, attr.name), attr.name,
              attr.value)));
        }
        break;
      }
      case XmlEventType::kEndElement:
        XQP_RETURN_NOT_OK(as_parse_error(builder.EndElement()));
        break;
      case XmlEventType::kText:
        XQP_RETURN_NOT_OK(as_parse_error(builder.Text(event->text)));
        break;
      case XmlEventType::kComment:
        XQP_RETURN_NOT_OK(as_parse_error(builder.Comment(event->text)));
        break;
      case XmlEventType::kProcessingInstruction:
        XQP_RETURN_NOT_OK(as_parse_error(
            builder.ProcessingInstruction(event->name.local, event->text)));
        break;
    }
  }
  return builder.Finish();
}

DocumentBuilder::DocumentBuilder() : DocumentBuilder(ParseOptions()) {}

DocumentBuilder::DocumentBuilder(const ParseOptions& options)
    : doc_(std::shared_ptr<Document>(new Document())), options_(options) {
  doc_->pool_.set_pooling_enabled(options.pool_strings);
  // The document node is row 0.
  doc_->nodes_.push_back(NodeRecord{NodeKind::kDocument, 0, kNoName, kNoValue,
                                    kNullNode, kNullNode, kNullNode, kNullNode,
                                    0});
  doc_->SyncNodeView();
  stack_.push_back(Open{0});
}

void DocumentBuilder::ReserveForInput(size_t input_bytes) {
  // XMark-like markup averages ~18 bytes per node; reserving at 24 keeps a
  // single doubling in the worst case while text-heavy inputs stay modest.
  size_t nodes = input_bytes / 24 + 8;
  doc_->nodes_.reserve(doc_->nodes_.size() + nodes);
  doc_->pool_.Reserve(nodes / 4);
}

Status DocumentBuilder::ChargeNode(size_t value_bytes) {
  if (fault::Armed()) {
    XQP_RETURN_NOT_OK(fault::MaybeInject("alloc"));
  }
  if (ResourceGovernor* governor = CurrentGovernor()) {
    XQP_RETURN_NOT_OK(
        governor->ChargeBytes(sizeof(NodeRecord) + value_bytes));
  }
  return Status::OK();
}

uint32_t DocumentBuilder::InternName(const QName& name) {
  auto it = doc_->name_index_.find(name);
  if (it != doc_->name_index_.end()) return it->second;
  uint32_t id = static_cast<uint32_t>(doc_->names_.size());
  doc_->names_.push_back(name);
  doc_->name_index_.emplace(name, id);
  return id;
}

NodeIndex DocumentBuilder::Append(NodeKind kind, uint32_t name_id,
                                  StringPool::Id value_id) {
  NodeIndex index = static_cast<NodeIndex>(doc_->nodes_.size());
  Open& top = stack_.back();
  NodeRecord rec;
  rec.kind = kind;
  // Parent is the top of the stack, whose depth is stack_.size() - 1, so the
  // appended node (child or attribute) sits one level deeper.
  rec.level = static_cast<uint16_t>(stack_.size());
  rec.name_id = name_id;
  rec.value_id = value_id;
  rec.parent = top.index;
  rec.next_sibling = kNullNode;
  rec.first_attr = kNullNode;
  rec.first_child = kNullNode;
  rec.end = index;
  doc_->nodes_.push_back(rec);
  doc_->SyncNodeView();

  NodeRecord& parent = doc_->nodes_[top.index];
  if (kind == NodeKind::kAttribute) {
    if (top.last_attr == kNullNode) {
      parent.first_attr = index;
    } else {
      doc_->nodes_[top.last_attr].next_sibling = index;
    }
    top.last_attr = index;
  } else {
    if (top.last_child == kNullNode) {
      parent.first_child = index;
    } else {
      doc_->nodes_[top.last_child].next_sibling = index;
    }
    top.last_child = index;
    top.last_was_text = (kind == NodeKind::kText);
  }
  return index;
}

uint32_t DocumentBuilder::MaxDepth() const {
  return std::min<uint32_t>(options_.max_parse_depth == 0
                                ? QueryLimits::kDefaultMaxParseDepth
                                : options_.max_parse_depth,
                            65535);
}

Status DocumentBuilder::DepthError() const {
  return Status::ParseError("element nesting exceeds maximum depth of " +
                            std::to_string(MaxDepth()));
}

Status DocumentBuilder::BeginElement(const QName& name) {
  if (finished_) return Status::Internal("builder already finished");
  return BeginElement(InternName(name));
}

Status DocumentBuilder::BeginElement(uint32_t name_id) {
  if (finished_) return Status::Internal("builder already finished");
  // Constructed documents bypass the pull parser, so the builder enforces
  // the nesting ceiling itself (NodeRecord.level is 16 bits).
  if (stack_.size() > MaxDepth()) return DepthError();
  XQP_RETURN_NOT_OK(ChargeNode(0));
  NodeIndex index = Append(NodeKind::kElement, name_id, kNoValue);
  stack_.push_back(Open{index});
  return Status::OK();
}

Status DocumentBuilder::EndElement() {
  if (stack_.size() <= 1) {
    return Status::Internal("EndElement without matching BeginElement");
  }
  NodeIndex index = stack_.back().index;
  stack_.pop_back();
  // Region end label: the subtree occupies rows [index, last appended].
  doc_->nodes_[index].end = static_cast<NodeIndex>(doc_->nodes_.size() - 1);
  stack_.back().last_was_text = false;
  return Status::OK();
}

Status DocumentBuilder::Attribute(const QName& name, std::string_view value) {
  const NodeRecord& parent = doc_->nodes_[stack_.back().index];
  if (parent.kind != NodeKind::kElement) {
    return Status::DynamicError("attribute outside element");
  }
  if (stack_.back().last_child != kNullNode) {
    return Status::DynamicError(
        "attribute \"" + name.Lexical() +
        "\" constructed after non-attribute content of element");
  }
  return AttributeById(InternName(name), name, value);
}

Status DocumentBuilder::Attribute(uint32_t name_id, const QName& name,
                                  std::string_view value) {
  const NodeRecord& parent = doc_->nodes_[stack_.back().index];
  if (parent.kind != NodeKind::kElement) {
    return Status::DynamicError("attribute outside element");
  }
  if (stack_.back().last_child != kNullNode) {
    return Status::DynamicError(
        "attribute \"" + name.Lexical() +
        "\" constructed after non-attribute content of element");
  }
  return AttributeById(name_id, name, value);
}

Status DocumentBuilder::AttributeById(uint32_t name_id, const QName& name,
                                      std::string_view value) {
  const NodeRecord& parent = doc_->nodes_[stack_.back().index];
  // Reject duplicate attribute names on the same element.
  for (NodeIndex a = parent.first_attr; a != kNullNode;
       a = doc_->nodes_[a].next_sibling) {
    if (doc_->nodes_[a].name_id == name_id) {
      return Status::DynamicError("duplicate attribute: " + name.Lexical());
    }
  }
  XQP_RETURN_NOT_OK(ChargeNode(value.size()));
  Append(NodeKind::kAttribute, name_id, doc_->pool_.Intern(value));
  return Status::OK();
}

Status DocumentBuilder::OrphanAttribute(const QName& name,
                                        std::string_view value) {
  if (stack_.size() != 1) {
    return Status::Internal("OrphanAttribute inside an open element");
  }
  XQP_RETURN_NOT_OK(ChargeNode(value.size()));
  Append(NodeKind::kAttribute, InternName(name), doc_->pool_.Intern(value));
  return Status::OK();
}

Status DocumentBuilder::NamespaceDecl(std::string_view prefix,
                                      std::string_view uri) {
  const Open& top = stack_.back();
  if (doc_->nodes_[top.index].kind != NodeKind::kElement) {
    return Status::DynamicError("namespace declaration outside element");
  }
  doc_->ns_decls_[top.index].push_back(
      Document::NsDecl{std::string(prefix), std::string(uri)});
  return Status::OK();
}

Status DocumentBuilder::Text(std::string_view text) {
  if (text.empty()) return Status::OK();
  if (options_.strip_whitespace && IsAllXmlWhitespace(text) &&
      stack_.size() > 1) {
    return Status::OK();
  }
  XQP_RETURN_NOT_OK(ChargeNode(text.size()));
  Open& top = stack_.back();
  if (top.last_was_text) {
    // Coalesce with the preceding text node.
    NodeRecord& prev = doc_->nodes_[top.last_child];
    std::string merged(doc_->pool_.Get(prev.value_id));
    merged.append(text);
    prev.value_id = doc_->pool_.Intern(merged);
    return Status::OK();
  }
  Append(NodeKind::kText, kNoName, doc_->pool_.Intern(text));
  return Status::OK();
}

Status DocumentBuilder::Comment(std::string_view text) {
  XQP_RETURN_NOT_OK(ChargeNode(text.size()));
  Append(NodeKind::kComment, kNoName, doc_->pool_.Intern(text));
  return Status::OK();
}

Status DocumentBuilder::ProcessingInstruction(std::string_view target,
                                              std::string_view data) {
  XQP_RETURN_NOT_OK(ChargeNode(data.size()));
  Append(NodeKind::kProcessingInstruction,
         InternName(QName(std::string(target))), doc_->pool_.Intern(data));
  return Status::OK();
}

Status DocumentBuilder::CopySubtree(const Document& src, NodeIndex root) {
  const NodeRecord& r = src.node(root);
  switch (r.kind) {
    case NodeKind::kDocument: {
      // Copying a document node copies its children.
      for (NodeIndex c = r.first_child; c != kNullNode;
           c = src.node(c).next_sibling) {
        XQP_RETURN_NOT_OK(CopySubtree(src, c));
      }
      return Status::OK();
    }
    case NodeKind::kText:
      return Text(src.value(root));
    case NodeKind::kComment:
      return Comment(src.value(root));
    case NodeKind::kProcessingInstruction:
      return ProcessingInstruction(src.name(root).local, src.value(root));
    case NodeKind::kAttribute:
      return Attribute(src.name(root), src.value(root));
    case NodeKind::kElement:
      return CopyElementRows(src, root);
  }
  return Status::Internal("unknown node kind in CopySubtree");
}

Status DocumentBuilder::CopyElementRows(const Document& src, NodeIndex root) {
  if (finished_) return Status::Internal("builder already finished");
  // An in-arena copy reads the very table it appends to: source rows are
  // read by value after the reserve below, never through a reference held
  // across an append, and name and value ids are already this document's.
  const bool in_place = &src == doc_.get();
  std::vector<NodeRecord>& rows = doc_->nodes_;
  const NodeIndex root_end = src.node(root).end;
  const uint16_t root_level = src.node(root).level;
  const NodeIndex base = static_cast<NodeIndex>(rows.size());
  // Source row i lands at row i + shift (unsigned wrap-around is intended).
  const NodeIndex shift = base - root;
  auto moved = [shift](NodeIndex i) {
    return i == kNullNode ? kNullNode : i + shift;
  };
  const uint32_t max_depth = MaxDepth();
  if (!in_place) copy_names_.assign(src.NumNames(), kNoName);
  // Grow geometrically: a parent constructor copies its children one by
  // one, and an exact reserve per copy would reallocate every time.
  const size_t needed = size_t(base) + (root_end - root) + 1;
  if (rows.capacity() < needed) {
    rows.reserve(std::max(needed, 2 * rows.capacity()));
    doc_->SyncNodeView();
  }
  auto fail = [&](Status st) {
    rows.resize(base);
    doc_->SyncNodeView();
    return st;
  };
  for (NodeIndex i = root; i <= root_end; ++i) {
    NodeRecord d = src.node(i);
    // The root lands one level below the open element, as BeginElement
    // would place it; descendants keep their depth relative to it.
    const size_t level = stack_.size() + (d.level - root_level);
    std::string_view value;
    if (d.kind == NodeKind::kElement) {
      // BeginElement's check: the new element would sit at `level`.
      if (level > max_depth) return fail(DepthError());
      d.value_id = kNoValue;
    } else {
      value = src.value(i);
    }
    if (Status st = ChargeNode(value.size()); !st.ok()) return fail(st);
    if (!in_place) {
      if (d.kind != NodeKind::kElement) d.value_id = doc_->pool_.Intern(value);
      if (d.name_id != kNoName) {
        uint32_t& name = copy_names_[d.name_id];
        if (name == kNoName) name = InternName(src.name_at(d.name_id));
        d.name_id = name;
      }
    }
    d.level = static_cast<uint16_t>(level);
    d.parent = i == root ? stack_.back().index : d.parent + shift;
    d.next_sibling = i == root ? kNullNode : moved(d.next_sibling);
    d.first_attr = moved(d.first_attr);
    d.first_child = moved(d.first_child);
    d.end += shift;
    rows.push_back(d);
  }
  doc_->SyncNodeView();

  // Link the copied root under the open element, as Append does.
  Open& top = stack_.back();
  if (top.last_child == kNullNode) {
    rows[top.index].first_child = base;
  } else {
    rows[top.last_child].next_sibling = base;
  }
  top.last_child = base;
  top.last_was_text = false;

  if (!src.ns_decls_.empty()) {
    for (NodeIndex i = root; i <= root_end; ++i) {
      if (const auto* decls = src.NamespaceDecls(i)) {
        // In place `decls` lives in the map being grown; a rehash keeps
        // element references valid.
        doc_->ns_decls_[i + shift] = *decls;
      }
    }
  }
  return Status::OK();
}

Result<std::shared_ptr<Document>> DocumentBuilder::Finish() {
  if (finished_) return Status::Internal("builder already finished");
  if (stack_.size() != 1) {
    return Status::ParseError("unclosed element at end of input");
  }
  finished_ = true;
  doc_->nodes_[0].end = static_cast<NodeIndex>(doc_->nodes_.size() - 1);
  return doc_;
}

Status DocumentBuilder::EndTree(NodeIndex root) {
  if (stack_.size() != 1 || root >= doc_->nodes_.size()) {
    return Status::Internal("EndTree without one complete top-level node");
  }
  NodeRecord& top = doc_->nodes_[0];
  top.first_child = kNullNode;
  top.first_attr = kNullNode;
  top.end = static_cast<NodeIndex>(doc_->nodes_.size() - 1);
  doc_->nodes_[root].parent = kNullNode;
  stack_[0] = Open{0};
  return Status::OK();
}

void DocumentBuilder::AbandonTree(NodeIndex root) {
  doc_->nodes_.resize(std::max<size_t>(root, 1));
  doc_->SyncNodeView();
  std::erase_if(doc_->ns_decls_,
                [root](const auto& entry) { return entry.first >= root; });
  NodeRecord& top = doc_->nodes_[0];
  top.first_child = kNullNode;
  top.first_attr = kNullNode;
  stack_.resize(1);
  stack_[0] = Open{0};
}

}  // namespace xqp
