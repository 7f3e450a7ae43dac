#ifndef XQP_INDEX_DOCUMENT_INDEXES_H_
#define XQP_INDEX_DOCUMENT_INDEXES_H_

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "base/status.h"
#include "join/tag_index.h"
#include "xml/document.h"

namespace xqp {

/// Which value-index families DocumentIndexes builds; a bitmask carried in
/// EngineOptions::index_value_kinds and overridable via XQP_INDEXES.
enum IndexValueKinds : uint32_t {
  kIndexValueString = 1u << 0,
  kIndexValueNumeric = 1u << 1,
  kIndexValueAll = kIndexValueString | kIndexValueNumeric,
};

/// Per-document secondary index structures — the paper's "separate indexes
/// from data" design point made concrete:
///
///   1. A *path synopsis* (DataGuide): every distinct root-to-node label
///      path in the document becomes one synopsis node, with a posting list
///      of the document nodes on that path (in document order). Rooted and
///      //-suffix paths then resolve by traversing the synopsis — typically
///      a few dozen nodes — instead of structural-joining full per-tag
///      posting lists. Attribute paths are first-class synopsis nodes.
///
///   2. A *value index*: per synopsis path, the typed values of the nodes on
///      it, sorted for range scans — strings byte-wise (exactly the general-
///      comparison string semantics) and, when every value on the path
///      parses as xs:double, numerically with NaN entries last. Selective
///      predicates like [price < 50] or [@id = "person0"] become one range
///      scan plus a doc-order merge.
///
///   3. The *tag postings* (join/tag_index.h): per element name, its
///      elements in document order — the streams the structural and twig
///      joins consume and the posting slice reads.
///
/// Instances are immutable after Build() and shared freely across threads;
/// IndexManager caches them per engine with epoch invalidation.
class DocumentIndexes {
 public:
  /// One distinct root-to-node label path. Node 0 is the document root
  /// (kind kDocument, no name); element and attribute paths hang off their
  /// parent path. Synopsis ids are dense and stable for the lifetime of the
  /// index.
  struct SynopsisNode {
    uint32_t name_id = kNoName;
    NodeKind kind = NodeKind::kDocument;
    int32_t parent = -1;
    std::vector<int32_t> children;
  };

  /// Typed values of every node on one synopsis path.
  struct ValuePostings {
    /// False when some element on the path has element content: its typed
    /// value is not a plain text concatenation of direct children, so value
    /// predicates on this path fall back to normal evaluation.
    bool indexable = true;
    /// True when every value on the path casts to xs:double — the
    /// precondition for answering numeric general comparisons without
    /// risking a cast error the fallback plan would have raised.
    bool all_numeric = true;
    /// (string value, node), sorted by value then node. Byte-wise string
    /// order matches the general-comparison string semantics.
    std::vector<std::pair<std::string, NodeIndex>> by_string;
    /// (double value, node), sorted by value then node, NaN entries last.
    std::vector<std::pair<double, NodeIndex>> by_number;
  };

  /// Builds the synopsis and the tag postings in one scan of the node table
  /// each, plus one value pass. Hosts the "alloc" fault-injection site
  /// (index construction is an allocation burst) — the error path is
  /// exercised by XQP_FAULT=alloc:N.
  static Result<std::shared_ptr<const DocumentIndexes>> Build(
      std::shared_ptr<const Document> doc, uint32_t value_kinds);

  const Document& doc() const { return *doc_; }
  const std::shared_ptr<const Document>& doc_ptr() const { return doc_; }
  uint32_t value_kinds() const { return value_kinds_; }

  size_t NumSynopsisNodes() const { return nodes_.size(); }
  const SynopsisNode& synopsis_node(int32_t s) const { return nodes_[s]; }

  /// Document nodes on synopsis path `s`, in document order. Posting lists
  /// of distinct synopsis nodes are disjoint by construction.
  const std::vector<NodeIndex>& postings(int32_t s) const {
    return postings_[s];
  }

  /// Postings on synopsis path `s` and on every path below it: the exact
  /// node population of the subtree (the root's is the document total).
  uint64_t subtree_postings(int32_t s) const { return subtree_postings_[s]; }

  /// Elements named `name_id`: the size of its tag posting list, which a
  /// structural join consumes (0 for kNoName or a name no element carries).
  uint64_t element_total(uint32_t name_id) const {
    const std::vector<NodeIndex>* list = tags_.Lookup(name_id);
    return list == nullptr ? 0 : list->size();
  }

  /// The per-name element postings over doc().
  const TagIndex& tags() const { return tags_; }

  /// Value postings for synopsis path `s`, or nullptr when the value index
  /// was not built (value_kinds == 0).
  const ValuePostings* values(int32_t s) const {
    return values_.empty() ? nullptr : &values_[s];
  }

  /// The child of `s` matching (kind, name_id), or -1.
  int32_t FindChild(int32_t s, NodeKind kind, uint32_t name_id) const;

  /// Appends every synopsis node strictly below `s` matching (kind,
  /// name_id) to `out` (the //-edge resolution step).
  void FindDescendants(int32_t s, NodeKind kind, uint32_t name_id,
                       std::vector<int32_t>* out) const;

  /// Approximate heap footprint of the synopsis, its postings and the
  /// value entries; tags().MemoryUsage() counts the tag postings.
  /// IndexManager charges the sum to the building query's governor.
  size_t MemoryUsage() const;

 private:
  friend class storage::SnapshotLoader;

  DocumentIndexes() = default;

  /// Derives subtree_postings_ from the synopsis and its postings, and
  /// builds tags_ by one scan of the node table. Build() and the snapshot
  /// loader call it once; neither is stored in snapshots, so a loaded tag
  /// list holds only rows the validated node table names.
  void ComputeTotals();

  std::shared_ptr<const Document> doc_;
  uint32_t value_kinds_ = 0;
  std::vector<SynopsisNode> nodes_;
  std::vector<std::vector<NodeIndex>> postings_;
  std::vector<ValuePostings> values_;  // Empty when value_kinds == 0.
  std::vector<uint64_t> subtree_postings_;  // Per synopsis node.
  TagIndex tags_;
};

}  // namespace xqp

#endif  // XQP_INDEX_DOCUMENT_INDEXES_H_
