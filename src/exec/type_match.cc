#include "exec/type_match.h"

namespace xqp {

bool MatchesItemType(const Item& item, const ItemTypeTest& test) {
  switch (test.kind) {
    case ItemTypeTest::Kind::kItem:
      return true;
    case ItemTypeTest::Kind::kNode:
      return item.IsNode();
    case ItemTypeTest::Kind::kText:
      return item.IsNode() && item.AsNode().kind() == NodeKind::kText;
    case ItemTypeTest::Kind::kComment:
      return item.IsNode() && item.AsNode().kind() == NodeKind::kComment;
    case ItemTypeTest::Kind::kPi:
      return item.IsNode() &&
             item.AsNode().kind() == NodeKind::kProcessingInstruction;
    case ItemTypeTest::Kind::kDocument:
      return item.IsNode() && item.AsNode().kind() == NodeKind::kDocument;
    case ItemTypeTest::Kind::kElement:
    case ItemTypeTest::Kind::kAttribute: {
      if (!item.IsNode()) return false;
      NodeKind want = test.kind == ItemTypeTest::Kind::kElement
                          ? NodeKind::kElement
                          : NodeKind::kAttribute;
      if (item.AsNode().kind() != want) return false;
      if (test.wildcard_name) return true;
      return item.AsNode().name() == test.name;
    }
    case ItemTypeTest::Kind::kAtomic: {
      if (!item.IsAtomic()) return false;
      XsType t = item.AsAtomic().type();
      if (t == test.atomic) return true;
      // Derived-type acceptance within the numeric tower: xs:integer is a
      // subtype of xs:decimal.
      if (test.atomic == XsType::kDecimal && t == XsType::kInteger) return true;
      return false;
    }
  }
  return false;
}

bool MatchesSequenceType(const Sequence& seq, const SequenceType& type) {
  if (type.empty_sequence) return seq.empty();
  switch (type.occurrence) {
    case Occurrence::kOne:
      if (seq.size() != 1) return false;
      break;
    case Occurrence::kOptional:
      if (seq.size() > 1) return false;
      break;
    case Occurrence::kPlus:
      if (seq.empty()) return false;
      break;
    case Occurrence::kStar:
      break;
  }
  for (const Item& item : seq) {
    if (!MatchesItemType(item, type.item)) return false;
  }
  return true;
}

Status CheckTreat(const SequenceType& type, const Item* item, size_t count) {
  const bool at_most_one = type.occurrence == Occurrence::kOne ||
                           type.occurrence == Occurrence::kOptional;
  const bool at_least_one = type.occurrence == Occurrence::kOne ||
                            type.occurrence == Occurrence::kPlus;
  if (item == nullptr) {
    if (count == 0 && !type.empty_sequence && at_least_one) {
      return Status::TypeError("treat as " + type.ToString() +
                               ": empty sequence");
    }
    return Status::OK();
  }
  if (type.empty_sequence) {
    return Status::TypeError("treat as empty-sequence(): non-empty input");
  }
  if (count > 1 && at_most_one) {
    return Status::TypeError("treat as " + type.ToString() +
                             ": more than one item");
  }
  if (!MatchesItemType(*item, type.item)) {
    return Status::TypeError("treat as " + type.ToString() +
                             ": item type mismatch");
  }
  return Status::OK();
}

}  // namespace xqp
