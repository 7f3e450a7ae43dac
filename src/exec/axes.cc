#include "exec/axes.h"

#include <algorithm>

#include "base/metrics.h"
#include "exec/dynamic_context.h"
#include "join/tag_index.h"

namespace xqp {

namespace {

void CountPostings(bool sliced) {
  if (!metrics::Enabled()) return;
  static metrics::Counter* slices =
      metrics::MetricsRegistry::Global().counter("join.postings.slices");
  static metrics::Counter* declined =
      metrics::MetricsRegistry::Global().counter("join.postings.declined");
  (sliced ? slices : declined)->Increment();
}

/// The tag index built for origin's document, from the run's memo or one
/// provider peek; null when there is none.
const TagIndex* RunTagIndex(const Node& origin, DynamicContext* ctx) {
  const Document* doc = &origin.doc();
  auto [it, inserted] = ctx->peeked_tag_indexes.try_emplace(doc);
  if (inserted) {
    it->second = {origin.doc_ptr(), ctx->provider->PeekTagIndex(*doc)};
  }
  return it->second.index.get();
}

}  // namespace

std::optional<std::span<const NodeIndex>> DescendantPostings(
    const Node& origin, Axis axis, const NodeTest& test, DynamicContext* ctx) {
  if (axis != Axis::kDescendant && axis != Axis::kDescendantOrSelf) {
    return std::nullopt;
  }
  const TagIndex* index = nullptr;
  if (ctx != nullptr && ctx->provider != nullptr && !origin.IsNull() &&
      ctx->force_access_path != AccessPath::kNav &&
      test.kind == NodeTest::Kind::kName && !test.wildcard_uri &&
      !test.wildcard_local) {
    index = RunTagIndex(origin, ctx);
  }
  CountPostings(index != nullptr);
  if (index == nullptr) return std::nullopt;
  const std::vector<NodeIndex>* postings = index->Lookup(test.uri, test.local);
  if (postings == nullptr) return std::span<const NodeIndex>();
  // Postings hold elements only, so the origin is in the list exactly when
  // descendant-or-self's self matches.
  const NodeIndex n = origin.index();
  auto first = axis == Axis::kDescendant
                   ? std::upper_bound(postings->begin(), postings->end(), n)
                   : std::lower_bound(postings->begin(), postings->end(), n);
  auto last =
      std::upper_bound(first, postings->end(), origin.doc().node(n).end);
  return std::span<const NodeIndex>(first, last);
}

Result<Item> SlashRoot(const Item& item) {
  if (!item.IsNode()) {
    return Status::TypeError("leading '/' requires a node context item");
  }
  Node root = item.AsNode().Root();
  if (root.kind() != NodeKind::kDocument) {
    return Status::DynamicError(
        "leading '/' requires the context node's tree to be rooted at a "
        "document node");
  }
  return Item(std::move(root));
}

AxisCursor::AxisCursor(const Node& origin, Axis axis, const NodeTest* test,
                       DynamicContext* ctx)
    : origin_(origin), axis_(axis), test_(test) {
  if (origin.IsNull()) {
    done_ = true;
    return;
  }
  if (test != nullptr) {
    slice_ = DescendantPostings(origin, axis, *test, ctx);
    if (slice_.has_value()) return;
  }
  const Document& doc = origin.doc();
  const NodeRecord& rec = doc.node(origin.index());
  switch (axis_) {
    case Axis::kChild:
      current_ = rec.first_child;
      break;
    case Axis::kAttribute:
      current_ = rec.first_attr;
      break;
    case Axis::kSelf:
      include_self_pending_ = true;
      break;
    case Axis::kParent:
      current_ = rec.parent;
      break;
    case Axis::kAncestor:
      current_ = rec.parent;
      break;
    case Axis::kAncestorOrSelf:
      include_self_pending_ = true;
      current_ = rec.parent;
      break;
    case Axis::kDescendant:
    case Axis::kDescendantOrSelf: {
      include_self_pending_ = axis_ == Axis::kDescendantOrSelf;
      // Descendants occupy rows (origin, rec.end]; attributes are skipped
      // during the scan.
      scan_ = origin.index() + 1;
      scan_end_ = rec.end;
      break;
    }
    case Axis::kFollowingSibling:
      current_ = rec.kind == NodeKind::kAttribute ? kNullNode
                                                  : rec.next_sibling;
      break;
    case Axis::kPrecedingSibling: {
      // Walk later; handled in Next() by scanning parent's children.
      current_ = kNullNode;
      if (rec.parent != kNullNode && rec.kind != NodeKind::kAttribute) {
        scan_ = doc.node(rec.parent).first_child;
        scan_end_ = origin.index();
      } else {
        done_ = true;
      }
      break;
    }
    case Axis::kFollowing: {
      // All nodes after the subtree up to the end of the origin's tree,
      // minus attributes. A construction arena holds many trees in one
      // document; the scan stays inside the origin's region.
      scan_ = rec.kind == NodeKind::kAttribute
                  ? origin.index() + 1  // Attribute: following starts after it.
                  : rec.end + 1;
      scan_end_ = doc.node(origin.Root().index()).end;
      if (scan_ > scan_end_) done_ = true;
      break;
    }
    case Axis::kPreceding: {
      // Scan backwards from origin-1 to just after the tree's root (an
      // ancestor), excluding ancestors/attributes.
      const NodeIndex root = origin.Root().index();
      scan_ = origin.index() - 1;
      scan_end_ = root + 1;
      if (origin.index() <= scan_end_) done_ = true;
      break;
    }
  }
}

bool AxisCursor::Matches(NodeIndex i) const {
  if (test_ == nullptr) return true;
  return test_->Matches(origin_.doc(), i, axis_ == Axis::kAttribute);
}

bool AxisCursor::Candidate(NodeIndex* out) {
  const Document& doc = origin_.doc();
  switch (axis_) {
    case Axis::kSelf:
      if (!include_self_pending_) return false;
      include_self_pending_ = false;
      *out = origin_.index();
      return true;
    case Axis::kChild:
    case Axis::kAttribute:
    case Axis::kFollowingSibling: {
      if (current_ == kNullNode) return false;
      *out = current_;
      current_ = doc.node(current_).next_sibling;
      return true;
    }
    case Axis::kParent:
      if (current_ == kNullNode) return false;
      *out = current_;
      current_ = kNullNode;
      return true;
    case Axis::kAncestor:
    case Axis::kAncestorOrSelf: {
      if (include_self_pending_) {
        include_self_pending_ = false;
        *out = origin_.index();
        return true;
      }
      if (current_ == kNullNode) return false;
      *out = current_;
      current_ = doc.node(current_).parent;
      return true;
    }
    case Axis::kDescendant:
    case Axis::kDescendantOrSelf: {
      if (include_self_pending_) {
        include_self_pending_ = false;
        *out = origin_.index();
        return true;
      }
      while (scan_ != kNullNode && scan_ <= scan_end_ &&
             scan_ < doc.NumNodes()) {
        NodeIndex i = scan_++;
        if (doc.node(i).kind == NodeKind::kAttribute) continue;
        *out = i;
        return true;
      }
      return false;
    }
    case Axis::kPrecedingSibling: {
      // Siblings before origin, in reverse document order. Collect lazily:
      // walk forward each time from scan_ to find the last sibling before
      // scan_end_. Sibling lists are short; O(k^2) worst case is fine.
      if (done_ || scan_ == kNullNode) return false;
      NodeIndex last = kNullNode;
      for (NodeIndex c = scan_; c != kNullNode && c < scan_end_;
           c = doc.node(c).next_sibling) {
        last = c;
      }
      if (last == kNullNode) {
        done_ = true;
        return false;
      }
      scan_end_ = last;
      *out = last;
      return true;
    }
    case Axis::kFollowing: {
      while (!done_ && scan_ <= scan_end_ && scan_ < doc.NumNodes()) {
        NodeIndex i = scan_++;
        if (doc.node(i).kind == NodeKind::kAttribute) continue;
        *out = i;
        return true;
      }
      return false;
    }
    case Axis::kPreceding: {
      while (!done_ && scan_ != kNullNode && scan_ >= scan_end_) {
        NodeIndex i = scan_;
        scan_ = (scan_ == scan_end_) ? kNullNode : scan_ - 1;
        const NodeRecord& rec = doc.node(i);
        if (rec.kind == NodeKind::kAttribute) continue;
        // Exclude ancestors of the origin.
        if (i < origin_.index() && origin_.index() <= rec.end) continue;
        *out = i;
        return true;
      }
      return false;
    }
  }
  return false;
}

bool AxisCursor::Next(Node* out) {
  if (slice_.has_value()) {
    if (slice_->empty()) return false;
    *out = Node(origin_.doc_ptr(), slice_->front());
    *slice_ = slice_->subspan(1);
    return true;
  }
  // Rows are tested by index; a Node (a document reference) is built only
  // for a match.
  NodeIndex candidate;
  while (Candidate(&candidate)) {
    if (Matches(candidate)) {
      *out = Node(origin_.doc_ptr(), candidate);
      return true;
    }
  }
  return false;
}

Status FinishPathResult(const PathExpr& path, Sequence* out) {
  bool saw_node = false;
  bool saw_atomic = false;
  for (const Item& item : *out) (item.IsNode() ? saw_node : saw_atomic) = true;
  if (saw_node && saw_atomic) {
    return Status::TypeError("path result mixes nodes and atomic values");
  }
  if (!saw_node) return Status::OK();
  if (path.needs_sort) {
    return SortDocOrderDistinct(out);
  }
  if (path.needs_dedup) return DedupNodesPreservingOrder(out);
  return Status::OK();
}

void CollectAxis(const Node& origin, Axis axis, const NodeTest& test,
                 Sequence* out, DynamicContext* ctx) {
  AxisCursor cursor(origin, axis, &test, ctx);
  Node node;
  while (cursor.Next(&node)) out->push_back(Item(std::move(node)));
}

}  // namespace xqp
