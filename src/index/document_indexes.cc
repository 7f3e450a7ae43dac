#include "index/document_indexes.h"

#include <algorithm>
#include <cmath>
#include <unordered_map>

#include "base/fault.h"

namespace xqp {
namespace {

/// Exact synopsis-edge key: (parent synopsis id, kind-is-attribute bit,
/// name id). Synopsis ids fit in 31 bits (they are bounded by the node
/// count), so the packing is collision-free.
uint64_t EdgeKey(int32_t parent, NodeKind kind, uint32_t name_id) {
  return (static_cast<uint64_t>(parent) << 33) |
         (static_cast<uint64_t>(kind == NodeKind::kAttribute) << 32) |
         name_id;
}

/// by_number order: value then node, every NaN entry after all ordered
/// values (range scans over [begin, nan_begin) never see an unordered pair).
bool NumericLess(const std::pair<double, NodeIndex>& a,
                 const std::pair<double, NodeIndex>& b) {
  bool a_nan = std::isnan(a.first);
  bool b_nan = std::isnan(b.first);
  if (a_nan != b_nan) return b_nan;
  if (!a_nan && a.first != b.first) return a.first < b.first;
  return a.second < b.second;
}

}  // namespace

Result<std::shared_ptr<const DocumentIndexes>> DocumentIndexes::Build(
    std::shared_ptr<const Document> doc, uint32_t value_kinds) {
  auto idx = std::shared_ptr<DocumentIndexes>(new DocumentIndexes());
  idx->doc_ = std::move(doc);
  idx->value_kinds_ = value_kinds;
  const Document& d = *idx->doc_;

  // --- Pass 1: path synopsis + postings, one preorder sweep. ------------
  idx->nodes_.push_back(SynopsisNode{});  // Synopsis node 0: document root.
  idx->postings_.emplace_back();
  if (d.NumNodes() > 0) idx->postings_[0].push_back(d.document_node());

  // Synopsis id of each document/element node (parents precede children in
  // preorder, so the parent's entry is always populated first).
  std::vector<int32_t> syn_of(d.NumNodes(), 0);
  std::unordered_map<uint64_t, int32_t> edge;

  for (NodeIndex i = 1; i < d.NumNodes(); ++i) {
    if ((i & 4095u) == 0 && fault::Armed()) {
      XQP_RETURN_NOT_OK(fault::MaybeInject("alloc"));
    }
    const NodeRecord& r = d.node(i);
    if (r.kind != NodeKind::kElement && r.kind != NodeKind::kAttribute) {
      continue;
    }
    int32_t parent = syn_of[r.parent];
    uint64_t key = EdgeKey(parent, r.kind, r.name_id);
    auto [it, inserted] =
        edge.try_emplace(key, static_cast<int32_t>(idx->nodes_.size()));
    if (inserted) {
      SynopsisNode s;
      s.name_id = r.name_id;
      s.kind = r.kind;
      s.parent = parent;
      idx->nodes_[parent].children.push_back(it->second);
      idx->nodes_.push_back(std::move(s));
      idx->postings_.emplace_back();
    }
    idx->postings_[it->second].push_back(i);
    syn_of[i] = it->second;
  }

  idx->ComputeTotals();
  if (value_kinds == 0) return std::shared_ptr<const DocumentIndexes>(idx);

  // --- Pass 2: typed values per synopsis path. --------------------------
  idx->values_.resize(idx->nodes_.size());
  for (size_t s = 1; s < idx->nodes_.size(); ++s) {
    if (fault::Armed()) XQP_RETURN_NOT_OK(fault::MaybeInject("alloc"));
    ValuePostings& vp = idx->values_[s];
    const SynopsisNode& sn = idx->nodes_[s];
    for (NodeIndex n : idx->postings_[s]) {
      if (sn.kind == NodeKind::kAttribute) {
        vp.by_string.emplace_back(std::string(d.value(n)), n);
        continue;
      }
      // Element: simple content only — a single element child anywhere on
      // the path disqualifies the whole path from value indexing.
      std::string text;
      bool simple = true;
      for (NodeIndex c = d.node(n).first_child; c != kNullNode;
           c = d.node(c).next_sibling) {
        NodeKind ck = d.node(c).kind;
        if (ck == NodeKind::kElement) {
          simple = false;
          break;
        }
        if (ck == NodeKind::kText) text += d.value(c);
      }
      if (!simple) {
        vp.indexable = false;
        break;
      }
      vp.by_string.emplace_back(std::move(text), n);
    }
    if (!vp.indexable) {
      vp.by_string.clear();
      vp.by_string.shrink_to_fit();
      continue;
    }
    if (value_kinds & kIndexValueNumeric) {
      vp.by_number.reserve(vp.by_string.size());
      for (const auto& [str, n] : vp.by_string) {
        // Mirror the runtime exactly: general comparison casts the node's
        // untyped value with CastTo(xs:double). Any value that would raise
        // a cast error poisons numeric indexing for the whole path, so the
        // fallback plan gets to raise that error itself.
        auto cast = AtomicValue::Untyped(str).CastTo(XsType::kDouble);
        if (!cast.ok()) {
          vp.all_numeric = false;
          vp.by_number.clear();
          vp.by_number.shrink_to_fit();
          break;
        }
        vp.by_number.emplace_back(cast.value().AsRawDouble(), n);
      }
      if (vp.all_numeric) {
        std::sort(vp.by_number.begin(), vp.by_number.end(), NumericLess);
      }
    } else {
      vp.all_numeric = false;  // Numeric family disabled: force fallback.
    }
    if (value_kinds & kIndexValueString) {
      std::sort(vp.by_string.begin(), vp.by_string.end());
    } else {
      vp.by_string.clear();
      vp.by_string.shrink_to_fit();
    }
  }
  return std::shared_ptr<const DocumentIndexes>(idx);
}

void DocumentIndexes::ComputeTotals() {
  // Children always carry larger ids than their parent (paths are
  // discovered top-down), so a reverse scan accumulates bottom-up.
  const size_t n = nodes_.size();
  subtree_postings_.assign(n, 0);
  for (size_t s = n; s-- > 0;) {
    subtree_postings_[s] += postings_[s].size();
    if (nodes_[s].parent >= 0) {
      subtree_postings_[nodes_[s].parent] += subtree_postings_[s];
    }
  }
  tags_ = TagIndex(doc_);
}

int32_t DocumentIndexes::FindChild(int32_t s, NodeKind kind,
                                   uint32_t name_id) const {
  for (int32_t c : nodes_[s].children) {
    if (nodes_[c].kind == kind && nodes_[c].name_id == name_id) return c;
  }
  return -1;
}

void DocumentIndexes::FindDescendants(int32_t s, NodeKind kind,
                                      uint32_t name_id,
                                      std::vector<int32_t>* out) const {
  for (int32_t c : nodes_[s].children) {
    if (nodes_[c].kind == kind && nodes_[c].name_id == name_id) {
      out->push_back(c);
    }
    FindDescendants(c, kind, name_id, out);
  }
}

size_t DocumentIndexes::MemoryUsage() const {
  size_t total = nodes_.capacity() * sizeof(SynopsisNode) +
                 postings_.capacity() * sizeof(std::vector<NodeIndex>) +
                 values_.capacity() * sizeof(ValuePostings) +
                 subtree_postings_.capacity() * sizeof(uint64_t);
  for (const auto& n : nodes_) total += n.children.capacity() * sizeof(int32_t);
  for (const auto& p : postings_) total += p.capacity() * sizeof(NodeIndex);
  for (const auto& v : values_) {
    total += v.by_number.capacity() * sizeof(std::pair<double, NodeIndex>);
    total += v.by_string.capacity() *
             sizeof(std::pair<std::string, NodeIndex>);
    for (const auto& [str, n] : v.by_string) total += str.capacity();
  }
  return total;
}

}  // namespace xqp
