#include "join/tag_index.h"

namespace xqp {

TagIndex::TagIndex(std::shared_ptr<const Document> doc)
    : doc_(std::move(doc)) {
  for (NodeIndex i = 0; i < doc_->NumNodes(); ++i) {
    const NodeRecord& n = doc_->node(i);
    if (n.kind == NodeKind::kElement) postings_[n.name_id].push_back(i);
  }
}

const std::vector<NodeIndex>* TagIndex::Lookup(std::string_view uri,
                                               std::string_view local) const {
  return Lookup(doc_->FindNameId(uri, local));
}

const std::vector<NodeIndex>* TagIndex::Lookup(uint32_t name_id) const {
  auto it = postings_.find(name_id);
  return it == postings_.end() ? nullptr : &it->second;
}

size_t TagIndex::MemoryUsage() const {
  size_t bytes = 0;
  for (const auto& [name, list] : postings_) {
    bytes += sizeof(name) + list.capacity() * sizeof(NodeIndex) + 48;
  }
  return bytes;
}

}  // namespace xqp
