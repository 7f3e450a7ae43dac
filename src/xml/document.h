#ifndef XQP_XML_DOCUMENT_H_
#define XQP_XML_DOCUMENT_H_

#include <cstdint>
#include <deque>
#include <memory>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "base/status.h"
#include "xml/atomic_value.h"
#include "xml/qname.h"
#include "xml/string_pool.h"

namespace xqp {

namespace storage {
class SnapshotLoader;
}  // namespace storage

/// Node kinds of the XQuery data model. Namespace nodes are represented as
/// per-element declaration records rather than first-class nodes (the only
/// consumer is serialization), a simplification documented in DESIGN.md.
enum class NodeKind : uint8_t {
  kDocument,
  kElement,
  kAttribute,
  kText,
  kComment,
  kProcessingInstruction,
};

/// Name of `k` ("element", "text", ...), per fn:node-kind.
std::string_view NodeKindName(NodeKind k);

using NodeIndex = uint32_t;
constexpr NodeIndex kNullNode = UINT32_MAX;
constexpr uint32_t kNoName = UINT32_MAX;
constexpr StringPool::Id kNoValue = StringPool::kInvalid;

/// One row of the document's node table. Rows are stored in pre-order, so a
/// node's index doubles as its region *start* label; `end` is the largest
/// index in its subtree (inclusive). Together with `level` this is the
/// (start, end, level) region encoding used by the structural-join module:
///   x is an ancestor of y  <=>  x.index < y.index && y.index <= x.end.
/// Attributes are laid out immediately after their owner element (before any
/// children) and therefore take part in document order, as XPath requires.
struct NodeRecord {
  NodeKind kind;
  uint16_t level;       // Depth; the document node is level 0.
  uint32_t name_id;     // Index into Document name table; kNoName if unnamed.
  StringPool::Id value_id;  // Text / attribute / comment / PI content.
  NodeIndex parent;
  NodeIndex next_sibling;   // For attributes: the next attribute.
  NodeIndex first_attr;     // Elements only.
  NodeIndex first_child;
  NodeIndex end;            // Region end label (inclusive).
};

/// Options controlling XML parsing.
struct ParseOptions {
  /// Drop text nodes consisting solely of whitespace (useful for
  /// data-oriented documents).
  bool strip_whitespace = false;
  /// Dictionary-compress text and attribute values (paper's pooling
  /// optimization). Disable to measure its benefit (experiment E4).
  bool pool_strings = true;
  /// Maximum element nesting depth the parser accepts before failing with
  /// kParseError; 0 means QueryLimits::kDefaultMaxParseDepth. Hard upper
  /// bound 65535 — NodeRecord stores levels in a uint16_t.
  uint32_t max_parse_depth = 0;
};

/// An XML document: a pre-order node table plus string/name pools. This is
/// the "array" storage mode of the paper (TokenStream section) in its
/// random-access form; `tokens/TokenStream` provides the sequential view.
/// Documents are created by Parse(), DocumentBuilder or the snapshot
/// loader. A parsed or loaded document is never mutated afterwards. A
/// construction arena (construct::Arena) grows only while its execution
/// appends to it: rows are only appended, existing rows keep their index,
/// and once the execution ends (or the arena seals it) the document is as
/// immutable as a parsed one, so node handles can be shared freely across
/// threads; until then, only the appending thread may read it. Appends may
/// move the node table, so no `const NodeRecord&` may be held across one;
/// names live in a deque and pooled strings in fixed chunks, so `name()`
/// references and `value()` views stay valid.
class Document : public std::enable_shared_from_this<Document> {
 public:
  /// Parses a complete XML document. Returns a ParseError with line/column
  /// information on malformed input.
  static Result<std::shared_ptr<Document>> Parse(std::string_view xml,
                                                 const ParseOptions& options = {});

  /// Process-unique id; used for stable cross-document ordering.
  uint64_t id() const { return id_; }

  size_t NumNodes() const { return nodes_count_; }
  const NodeRecord& node(NodeIndex i) const { return nodes_data_[i]; }

  /// Expanded name of node `i`; valid only when node has a name.
  const QName& name(NodeIndex i) const {
    return names_[nodes_data_[i].name_id];
  }

  /// Pooled content string of node `i` (text, attribute value, ...).
  std::string_view value(NodeIndex i) const {
    return nodes_data_[i].value_id == kNoValue
               ? std::string_view()
               : pool_.Get(nodes_data_[i].value_id);
  }

  /// The document node (always index 0 for non-empty documents).
  NodeIndex document_node() const { return 0; }

  /// First element child of the document node, kNullNode if none.
  NodeIndex root_element() const;

  /// Number of distinct expanded names.
  size_t NumNames() const { return names_.size(); }
  const QName& name_at(uint32_t name_id) const { return names_[name_id]; }

  /// Id of the expanded name (uri, local), or kNoName when no node in this
  /// document carries it. Lets navigation compare names as integers.
  uint32_t FindNameId(std::string_view uri, std::string_view local) const;

  /// XDM string-value: concatenated descendant text (elements/documents),
  /// or the content string (other kinds).
  std::string StringValue(NodeIndex i) const;

  /// XDM typed-value of an untyped node: xdt:untypedAtomic(string-value).
  AtomicValue TypedValue(NodeIndex i) const {
    return AtomicValue::Untyped(StringValue(i));
  }

  /// Namespace declarations recorded on element `i` (for serialization).
  struct NsDecl {
    std::string prefix;
    std::string uri;
  };
  const std::vector<NsDecl>* NamespaceDecls(NodeIndex i) const;

  /// Approximate heap footprint in bytes (node table + pools), reported by
  /// the storage experiments (E3/E4).
  size_t MemoryUsage() const;

  const std::string& base_uri() const { return base_uri_; }
  void set_base_uri(std::string uri) { base_uri_ = std::move(uri); }

  const StringPool& pool() const { return pool_; }

 private:
  friend class DocumentBuilder;
  friend class storage::SnapshotLoader;
  Document();

  /// Points node accessors at the current table. The builder calls this
  /// after every append (nodes_ may have reallocated); the snapshot loader
  /// instead aims the view straight into an mmap'd file, leaving nodes_
  /// empty — accessors are branch-free either way.
  void SyncNodeView() {
    nodes_data_ = nodes_.data();
    nodes_count_ = nodes_.size();
  }

  uint64_t id_;
  std::vector<NodeRecord> nodes_;
  /// Node-table view: (nodes_.data(), nodes_.size()) for built documents,
  /// a pointer into `backing_` for snapshot-loaded ones.
  const NodeRecord* nodes_data_ = nullptr;
  size_t nodes_count_ = 0;
  /// Keeps a snapshot mapping alive for as long as any view (node table,
  /// pooled strings) points into it; null for built documents.
  std::shared_ptr<const void> backing_;
  /// A deque, not a vector: interning a name must not move the names that
  /// `name()` has handed out while an arena document grows.
  std::deque<QName> names_;
  std::unordered_map<QName, uint32_t, QNameHash> name_index_;
  StringPool pool_;
  std::unordered_map<NodeIndex, std::vector<NsDecl>> ns_decls_;
  std::string base_uri_;
};

/// Streaming builder assembling an immutable Document from begin/end events.
/// Used by the parser, by XQuery node constructors, and by the token-stream
/// materializer. Adjacent text is coalesced into a single text node, as the
/// data model requires.
class DocumentBuilder {
 public:
  DocumentBuilder();
  explicit DocumentBuilder(const ParseOptions& options);

  Status BeginElement(const QName& name);
  Status EndElement();
  Status Attribute(const QName& name, std::string_view value);

  /// Interns `name` into the document's name table (first-appearance order)
  /// and returns its dense id — the same id BeginElement/Attribute would
  /// assign. Event sources that can memoize names (see
  /// XmlEvent::name_token) intern once and then use the id overloads below,
  /// skipping the per-event QName hash.
  uint32_t InternNameId(const QName& name) { return InternName(name); }
  /// BeginElement with a pre-interned name id (ingest fast path).
  Status BeginElement(uint32_t name_id);
  /// Attribute with a pre-interned name id (ingest fast path). `name` is
  /// only read on error paths (diagnostics print the caller's lexical
  /// form, which may differ in prefix from the first-interned spelling).
  Status Attribute(uint32_t name_id, const QName& name,
                   std::string_view value);
  /// Appends a parentless attribute node directly under the document node
  /// (XDM allows attribute items outside any element; XQuery computed
  /// attribute constructors produce them).
  Status OrphanAttribute(const QName& name, std::string_view value);
  Status NamespaceDecl(std::string_view prefix, std::string_view uri);
  Status Text(std::string_view text);
  Status Comment(std::string_view text);
  Status ProcessingInstruction(std::string_view target, std::string_view data);

  /// Deep-copies the subtree rooted at `src[root]` (attributes included)
  /// into the document under construction. Implements the paper's "XML does
  /// not allow cut and paste": constructed content is copied, with fresh
  /// node identities. An element is copied as one block of rows (see
  /// CopyElementRows), verbatim: strip_whitespace applies to Text() events
  /// only. Text (coalescing), attribute (duplicate check), comment, PI and
  /// document roots go through the event methods. `src` may be the
  /// document under construction itself (an in-arena copy).
  Status CopySubtree(const Document& src, NodeIndex root);

  /// Sizes the node table and string pool for an input of `input_bytes`
  /// of serialized XML (ingest fast path). Estimates are deliberately
  /// conservative — roughly one node per 24 bytes of markup — so text-heavy
  /// documents do not over-allocate; purely an optimization.
  void ReserveForInput(size_t input_bytes);

  /// Number of nodes appended so far.
  size_t NumNodes() const { return doc_->nodes_.size(); }

  /// Completes the document. All elements must be closed.
  Result<std::shared_ptr<Document>> Finish();

  /// The document under construction (construct::Arena hands out nodes
  /// into it while it grows).
  const std::shared_ptr<Document>& document() const { return doc_; }

  /// Arena mode (construct::Arena): the builder appends parentless trees,
  /// one after another, behind its hidden document node at row 0. The
  /// caller notes NumNodes() as the next tree's root row, appends exactly
  /// one top-level node (with its subtree), then calls EndTree.

  /// Completes the tree rooted at `root`: the root loses its parent and is
  /// unlinked from row 0, so no axis leads from one tree to another.
  Status EndTree(NodeIndex root);

  /// Drops every row from `root` on (a failed constructor), along with
  /// their namespace declarations, and closes any elements left open.
  /// Interned names and strings stay.
  void AbandonTree(NodeIndex root);

 private:
  uint32_t InternName(const QName& name);

  /// The element nesting ceiling: ParseOptions::max_parse_depth, defaulted
  /// and capped at 65535 (NodeRecord.level is 16 bits).
  uint32_t MaxDepth() const;

  /// The depth error BeginElement raises past MaxDepth().
  Status DepthError() const;

  /// CopySubtree of an element: appends the source rows [root, end] in one
  /// pre-order pass, shifting links and levels and copying namespace
  /// declarations. From another document, names map through a per-call
  /// source-to-destination name-id table and values are re-interned; from
  /// the document under construction (an in-arena copy), name and value
  /// ids are kept as they are. Charges each row and raises the depth error
  /// exactly where the BeginElement/Attribute/Text sequence would; on
  /// failure the appended rows are dropped again.
  Status CopyElementRows(const Document& src, NodeIndex root);
  NodeIndex Append(NodeKind kind, uint32_t name_id, StringPool::Id value_id);

  /// Shared tail of the Attribute overloads: duplicate check, admission,
  /// append. Caller has already validated the parent element; `name` is
  /// read only for error text.
  Status AttributeById(uint32_t name_id, const QName& name,
                       std::string_view value);

  /// Per-node admission control, called before every Append: hosts the
  /// "alloc" fault-injection site and charges the node's approximate
  /// storage cost to the governing query's memory budget.
  Status ChargeNode(size_t value_bytes);

  struct Open {
    NodeIndex index;
    NodeIndex last_child = kNullNode;
    NodeIndex last_attr = kNullNode;
    bool last_was_text = false;
  };

  std::shared_ptr<Document> doc_;
  std::vector<Open> stack_;
  ParseOptions options_;
  bool finished_ = false;
  std::vector<uint32_t> copy_names_;  // CopyElementRows' name-id table.
};

}  // namespace xqp

#endif  // XQP_XML_DOCUMENT_H_
