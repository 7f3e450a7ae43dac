#ifndef XQP_JOIN_STRUCTURAL_JOIN_H_
#define XQP_JOIN_STRUCTURAL_JOIN_H_

#include <span>
#include <vector>

#include "xml/document.h"

namespace xqp {

/// One (ancestor, descendant) — or (parent, child) — match.
struct JoinPair {
  NodeIndex ancestor;
  NodeIndex descendant;

  friend bool operator==(const JoinPair& a, const JoinPair& b) {
    return a.ancestor == b.ancestor && a.descendant == b.descendant;
  }
};

/// The structural-join primitive of Al-Khalifa et al. ("Structural Joins: A
/// Primitive for Efficient XML Query Pattern Matching"), referenced by the
/// paper's query-evaluation reading list. Inputs are document-order-sorted
/// element lists; containment is decided with the (start=index, end, level)
/// region labels. All algorithms return identical pair sets; they differ in
/// complexity:
///
///  - Stack-Tree-Desc:  O(|A| + |D| + |output|), output sorted by descendant.
///  - Stack-Tree-Anc:   same bound, output sorted by ancestor.
///  - MPMGJN:           merge with rescans; degrades on deep nesting.
///  - Nested loop:      O(|A| * |D|) baseline.
///
/// `parent_child` restricts matches to level(descendant) == level(anc)+1.

std::vector<JoinPair> StackTreeDesc(const Document& doc,
                                    std::span<const NodeIndex> ancestors,
                                    std::span<const NodeIndex> descendants,
                                    bool parent_child = false);

std::vector<JoinPair> StackTreeAnc(const Document& doc,
                                   std::span<const NodeIndex> ancestors,
                                   std::span<const NodeIndex> descendants,
                                   bool parent_child = false);

std::vector<JoinPair> MpmgJoin(const Document& doc,
                               std::span<const NodeIndex> ancestors,
                               std::span<const NodeIndex> descendants,
                               bool parent_child = false);

std::vector<JoinPair> NestedLoopJoin(const Document& doc,
                                     std::span<const NodeIndex> ancestors,
                                     std::span<const NodeIndex> descendants,
                                     bool parent_child = false);

/// Semi-join projections (what an XPath step actually needs): the distinct
/// descendants with at least one ancestor in `ancestors`, in document
/// order; and the dual. Both run the stack algorithm with early-out, so no
/// pair list is materialized.
std::vector<NodeIndex> JoinDescendants(const Document& doc,
                                       std::span<const NodeIndex> ancestors,
                                       std::span<const NodeIndex> descendants,
                                       bool parent_child = false);

std::vector<NodeIndex> JoinAncestors(const Document& doc,
                                     std::span<const NodeIndex> ancestors,
                                     std::span<const NodeIndex> descendants,
                                     bool parent_child = false);

}  // namespace xqp

#endif  // XQP_JOIN_STRUCTURAL_JOIN_H_
