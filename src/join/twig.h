#ifndef XQP_JOIN_TWIG_H_
#define XQP_JOIN_TWIG_H_

#include <string>
#include <vector>

#include "base/status.h"
#include "join/tag_index.h"

namespace xqp {

/// A twig (tree) pattern over element names: node 0 is the root; each other
/// node hangs off its parent by an ancestor-descendant ("//") or
/// parent-child ("/") edge. `output` designates the node whose distinct
/// matches the query returns (XPath existential semantics for the rest).
struct TwigPattern {
  struct PNode {
    std::string uri;
    std::string local;
    int parent = -1;
    bool child_edge = false;  // True: "/", false: "//".
    std::vector<int> children;
  };

  std::vector<PNode> nodes;
  int output = 0;
  /// Document URI when the source path was anchored at doc('uri'); empty
  /// for root()/variable anchors. Set by the planner; lets the engine pick
  /// the right tag index.
  std::string anchor_uri;

  /// Adds a node; returns its index. parent < 0 makes it the root.
  int Add(std::string local, int parent = -1, bool child_edge = false);

  bool IsPath() const;
  std::string ToString() const;
};

/// Counters for comparing algorithms (experiment E6): how many intermediate
/// (edge) pairs each strategy materializes before producing the final
/// matches.
struct TwigStats {
  uint64_t intermediate_pairs = 0;
  uint64_t output_matches = 0;
};

/// Holistic twig join (Bruno/Koudas/Srivastava, "Holistic twig joins:
/// optimal XML pattern matching"): one synchronized pass over the per-tag
/// posting lists with a stack per pattern node; only edge pairs that lie on
/// a root-to-leaf path solution are recorded. Returns the distinct matches
/// of `pattern.output` in document order.
Result<std::vector<NodeIndex>> TwigStackMatch(const TagIndex& index,
                                              const TwigPattern& pattern,
                                              TwigStats* stats = nullptr);

/// TwigStackMatch over caller-supplied posting lists, one per pattern node
/// in document order — the seam the index-aware planner feeds with
/// synopsis-filtered lists (index/index_planner.h). Any list may be a
/// subset of the node's full per-tag postings as long as it retains every
/// solution participant; the match set is then identical to TwigStackMatch.
/// `lists` must have pattern.nodes.size() non-null entries.
Result<std::vector<NodeIndex>> TwigStackMatchWithLists(
    const Document& doc, const TwigPattern& pattern,
    const std::vector<const std::vector<NodeIndex>*>& lists,
    TwigStats* stats = nullptr);

/// PathStack: the linear-pattern special case, with direct chain marking
/// (no pair materialization at all).
Result<std::vector<NodeIndex>> PathStackMatch(const TagIndex& index,
                                              const TwigPattern& pattern,
                                              TwigStats* stats = nullptr);

/// Baseline: a pipeline of binary structural joins, one per pattern edge,
/// materializing every edge's full pair list before filtering — the plan
/// shape holistic joins were invented to beat.
Result<std::vector<NodeIndex>> BinaryJoinMatch(const TagIndex& index,
                                               const TwigPattern& pattern,
                                               TwigStats* stats = nullptr);

/// Baseline: pure navigation (recursive subtree probing, no index).
Result<std::vector<NodeIndex>> NavigationMatch(const Document& doc,
                                               const TwigPattern& pattern,
                                               TwigStats* stats = nullptr);

}  // namespace xqp

#endif  // XQP_JOIN_TWIG_H_
