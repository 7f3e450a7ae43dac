#ifndef XQP_JOIN_TAG_INDEX_H_
#define XQP_JOIN_TAG_INDEX_H_

#include <memory>
#include <unordered_map>
#include <vector>

#include "xml/document.h"

namespace xqp {

/// Element-tag index over one document: for each expanded name, the list of
/// element nodes carrying it, in document order (i.e., sorted by region
/// start label). This is the input the structural-join algorithms consume —
/// "Index Structures for Path Expressions" made concrete as simple sorted
/// postings. The engine keeps one inside each document's DocumentIndexes.
class TagIndex {
 public:
  explicit TagIndex(std::shared_ptr<const Document> doc);

  const Document& doc() const { return *doc_; }

  /// Postings for the expanded name (uri, local); nullptr when absent.
  const std::vector<NodeIndex>* Lookup(std::string_view uri,
                                       std::string_view local) const;

  /// Postings for the element name id; nullptr when no element carries it.
  const std::vector<NodeIndex>* Lookup(uint32_t name_id) const;

  /// Number of distinct element names.
  size_t NumTags() const { return postings_.size(); }

  size_t MemoryUsage() const;

 private:
  friend class DocumentIndexes;  // Holds one, filled once it has a document.

  TagIndex() = default;

  std::shared_ptr<const Document> doc_;
  std::unordered_map<uint32_t, std::vector<NodeIndex>> postings_;
};

}  // namespace xqp

#endif  // XQP_JOIN_TAG_INDEX_H_
