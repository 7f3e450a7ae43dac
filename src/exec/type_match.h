#ifndef XQP_EXEC_TYPE_MATCH_H_
#define XQP_EXEC_TYPE_MATCH_H_

#include "exec/item.h"
#include "query/sequence_type.h"

namespace xqp {

/// Dynamic "instance of" check for one item against an item type.
bool MatchesItemType(const Item& item, const ItemTypeTest& test);

/// Dynamic "instance of" check for a whole sequence (occurrence included).
bool MatchesSequenceType(const Sequence& seq, const SequenceType& type);

/// The check behind "treat as `type`", shared by every backend and fed one
/// item at a time so the lazy engine keeps streaming: call it with each
/// operand item (`count` is its 1-based index), then once with `item`
/// null and `count` the operand's length.
Status CheckTreat(const SequenceType& type, const Item* item, size_t count);

}  // namespace xqp

#endif  // XQP_EXEC_TYPE_MATCH_H_
