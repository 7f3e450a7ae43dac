#ifndef XQP_EXEC_ITEM_H_
#define XQP_EXEC_ITEM_H_

#include <string>
#include <variant>
#include <vector>

#include "base/status.h"
#include "xml/atomic_value.h"
#include "xml/node.h"

namespace xqp {

/// An XQuery data-model item: a node or an atomic value. Sequences are flat
/// vectors of items (nesting is impossible by construction, as the data
/// model requires).
class Item {
 public:
  Item() : v_(AtomicValue()) {}
  Item(AtomicValue atom) : v_(std::move(atom)) {}  // NOLINT
  Item(Node node) : v_(std::move(node)) {}         // NOLINT

  bool IsNode() const { return std::holds_alternative<Node>(v_); }
  bool IsAtomic() const { return !IsNode(); }

  const Node& AsNode() const { return std::get<Node>(v_); }
  const AtomicValue& AsAtomic() const { return std::get<AtomicValue>(v_); }

  /// fn:string of a single item.
  std::string StringValue() const {
    return IsNode() ? AsNode().StringValue() : AsAtomic().Lexical();
  }

  /// fn:data of a single item: typed value of nodes (untypedAtomic in this
  /// engine's untyped model), identity for atomics.
  AtomicValue Atomized() const {
    return IsNode() ? AsNode().TypedValue() : AsAtomic();
  }

 private:
  std::variant<AtomicValue, Node> v_;
};

using Sequence = std::vector<Item>;

/// Atomizes a whole sequence (fn:data).
Sequence Atomize(const Sequence& seq);

/// XQuery effective boolean value of a sequence (the paper's BEV rules):
/// () => false; first item a node => true; singleton boolean/string/numeric
/// by value; anything else is a type error.
Result<bool> EffectiveBooleanValue(const Sequence& seq);

/// The keep rule of a predicate `E[p]`, shared by every backend: a
/// singleton numeric value is a position test against the focus
/// `position`, anything else takes its effective boolean value.
Result<bool> PredicateKeeps(const Sequence& value, int64_t position);

/// A type error when `seq` holds an atomic value (a path, union,
/// intersect or except result must be nodes only).
Status CheckNodesOnly(const Sequence& seq);

/// Sorts nodes into document order and removes duplicate (identical) nodes.
/// Errors if the sequence contains atomic values (callers guarantee
/// node-only input). This is the expensive "ddo" operation whose elision
/// the optimizer targets.
Status SortDocOrderDistinct(Sequence* seq);

/// Removes duplicate nodes by identity while preserving the existing order
/// (for paths that are duplicate-prone but provably ordered, or vice
/// versa). Errors on atomic values.
Status DedupNodesPreservingOrder(Sequence* seq);

/// True if `a` and `b` are the same sequence of items under node identity /
/// atomic deep-equality; used by tests to compare engine outputs.
bool SequencesIdentical(const Sequence& a, const Sequence& b);

}  // namespace xqp

#endif  // XQP_EXEC_ITEM_H_
