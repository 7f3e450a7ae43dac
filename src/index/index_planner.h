#ifndef XQP_INDEX_INDEX_PLANNER_H_
#define XQP_INDEX_INDEX_PLANNER_H_

#include <optional>
#include <string>
#include <vector>

#include "index/document_indexes.h"
#include "query/expr.h"

namespace xqp {

/// One step of an index-answerable path chain.
struct IndexStep {
  std::string uri;
  std::string local;
  /// Edge from the previous step: descendant (//) vs child (/).
  bool descendant = false;
  /// attribute:: axis (element child:: / descendant:: otherwise).
  bool attribute = false;
};

/// One predicate [.. op literal] or [position] carried by one step.
struct IndexPredicate {
  /// Position in IndexQuery::steps of the step the predicate filters. All
  /// predicates of one IndexQuery share the same step (the materialization
  /// point); later steps are navigated from the filtered node set.
  size_t step = 0;
  /// True for a positional predicate `[n]` (numeric literal): the operand
  /// is the position, matched per context node — i.e. the n-th qualifying
  /// step node among those sharing a parent. The target step is unused.
  bool positional = false;
  /// The compared step: a child element or attribute of the filtered step.
  IndexStep target;
  /// Normalized so the node side is on the left (flipped when the query
  /// wrote `literal op step`). Always a general-comparison op.
  CompOp op = CompOp::kGenEq;
  /// The literal operand; string-like or numeric.
  AtomicValue operand;
};

/// The index-answerable query fragment: a doc('uri')-anchored chain of
/// named child/descendant/attribute steps where one step may carry a
/// conjunction of value predicates (stacked brackets or `and`-chains, all
/// intersected) optionally followed by one positional predicate.
struct IndexQuery {
  std::string doc_uri;
  std::vector<IndexStep> steps;
  std::vector<IndexPredicate> predicates;

  bool HasPredicates() const { return !predicates.empty(); }
  /// The step carrying the predicates (meaningless when there are none).
  size_t PredicateStep() const {
    return predicates.empty() ? 0 : predicates.front().step;
  }
};

/// Recognizes the index-answerable fragment: a path anchored at a literal
/// doc('uri') whose steps are named child, descendant ("/" or "//") or
/// attribute steps. Predicates may sit on one step only: general
/// comparisons of a named child or attribute with a literal (and
/// conjunctions of them), then at most one numeric position on a child
/// step. Anything else declines. Purely structural — no document needed —
/// so the rewriter uses it to mark PathExpr::index_candidate and EXPLAIN
/// re-derives it to print the access path.
std::optional<IndexQuery> PlanIndexPath(const Expr& e);

/// True when `e` is a path chain anchored at a literal doc('uri'): the
/// chains a forced access path is offered to, whether or not PlanIndexPath
/// can answer them.
bool IsDocAnchoredPath(const Expr& e);

/// Answers `q` from the synopsis / value index. nullopt means the index
/// cannot *prove* the answer (numeric predicate over a non-numeric path,
/// complex-content target, disabled value family) and the caller must fall
/// back to normal evaluation; an empty vector is a real (empty) answer.
/// Results are in document order, duplicate-free.
std::optional<std::vector<NodeIndex>> AnswerIndexQuery(
    const DocumentIndexes& idx, const IndexQuery& q);

/// Advances a synopsis frontier (sorted, duplicate-free synopsis-node set)
/// across one chain step whose name the caller looked up
/// (`name_id` = idx.doc().FindNameId(st.uri, st.local)). Exported for the
/// cost model (opt/cost.h), which resolves chains exactly the way
/// AnswerIndexQuery does.
std::vector<int32_t> ResolveSynopsisStep(const DocumentIndexes& idx,
                                         const std::vector<int32_t>& frontier,
                                         const IndexStep& st,
                                         uint32_t name_id);

/// Total posting count of a synopsis set — the exact number of document
/// nodes on those paths (lists are pairwise disjoint).
size_t CountSynopsisPostings(const DocumentIndexes& idx,
                             const std::vector<int32_t>& syn);

/// Concatenate-and-sort of a synopsis set's posting lists: the document-
/// order distinct node set on those paths.
std::vector<NodeIndex> MergedSynopsisPostings(const DocumentIndexes& idx,
                                              const std::vector<int32_t>& syn);

/// Counts the target entries a value predicate's range probe would match
/// over `frontier` without materializing them — the selectivity input of
/// the cost model. nullopt exactly when ApplyPredicate would decline
/// (disabled family, unindexable path, non-numeric path under a numeric
/// operand), so a countable predicate is also an answerable one.
std::optional<size_t> CountPredicateMatches(const DocumentIndexes& idx,
                                            const std::vector<int32_t>& frontier,
                                            const IndexPredicate& pred);

/// Navigates one chain step from an already-materialized doc-order node
/// set (the continuation steps after a predicate, or a trailing attribute
/// step after a join strategy). Output is doc-order distinct.
std::vector<NodeIndex> NavigateMaterializedStep(const Document& doc,
                                                const std::vector<NodeIndex>& base,
                                                const IndexStep& st);

}  // namespace xqp

#endif  // XQP_INDEX_INDEX_PLANNER_H_
