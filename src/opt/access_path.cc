#include "opt/access_path.h"

#include <algorithm>
#include <utility>
#include <vector>

#include "base/metrics.h"
#include "join/structural_join.h"
#include "join/twig.h"

namespace xqp {
namespace {

/// Binary structural-join cascade: starting from the document node, one
/// semi-join per element step against the full per-tag posting list (the
/// previous frontier plays ancestor; parent_child encodes "/" vs "//").
/// Declines (nullopt) when the chain shape is not joinable.
std::optional<std::vector<NodeIndex>> ExecuteSJoinChain(
    const DocumentIndexes& idx, const IndexQuery& q) {
  JoinChainShape shape = ClassifyJoinChain(q);
  if (!shape.joinable) return std::nullopt;
  const Document& doc = idx.doc();
  std::vector<NodeIndex> frontier{0};  // The document node contains all.
  for (size_t i = 0; i < shape.elem_steps && !frontier.empty(); ++i) {
    const IndexStep& st = q.steps[i];
    const std::vector<NodeIndex>* list = idx.tags().Lookup(st.uri, st.local);
    if (list == nullptr) {
      frontier.clear();
      break;
    }
    frontier = JoinDescendants(doc, frontier, *list, !st.descendant);
  }
  if (shape.trailing_attr && !frontier.empty()) {
    frontier = NavigateMaterializedStep(doc, frontier, q.steps.back());
  }
  return frontier;
}

/// Holistic twig join over a linear chain: node 0's list is the exact
/// synopsis answer for the first step (index-backed leading edge); deeper
/// nodes consume the full per-tag lists. Declines for shapes with fewer
/// than two element steps (TwigStack needs an edge to be holistic about).
Result<std::optional<std::vector<NodeIndex>>> ExecuteTwigChain(
    const DocumentIndexes& idx, const IndexQuery& q) {
  std::optional<std::vector<NodeIndex>> declined;
  JoinChainShape shape = ClassifyJoinChain(q);
  if (!shape.joinable || shape.elem_steps < 2) return declined;
  const Document& doc = idx.doc();

  std::vector<int32_t> first_frontier =
      ResolveSynopsisStep(idx, {0}, q.steps[0],
                          doc.FindNameId(q.steps[0].uri, q.steps[0].local));
  std::vector<NodeIndex> first = MergedSynopsisPostings(idx, first_frontier);

  TwigPattern pattern;
  pattern.anchor_uri = q.doc_uri;
  std::vector<const std::vector<NodeIndex>*> lists;
  int prev = pattern.Add(q.steps[0].local);
  pattern.nodes[prev].uri = q.steps[0].uri;
  lists.push_back(&first);
  bool missing_tag = false;
  for (size_t i = 1; i < shape.elem_steps; ++i) {
    const IndexStep& st = q.steps[i];
    int node = pattern.Add(st.local, prev, /*child_edge=*/!st.descendant);
    pattern.nodes[node].uri = st.uri;
    const std::vector<NodeIndex>* list = idx.tags().Lookup(st.uri, st.local);
    if (list == nullptr) missing_tag = true;
    lists.push_back(list);
    prev = node;
  }
  pattern.output = prev;

  std::vector<NodeIndex> matches;
  if (!missing_tag && !first.empty()) {
    XQP_ASSIGN_OR_RETURN(matches, TwigStackMatchWithLists(doc, pattern, lists));
  }
  if (shape.trailing_attr && !matches.empty()) {
    matches = NavigateMaterializedStep(doc, matches, q.steps.back());
  }
  return std::optional<std::vector<NodeIndex>>(std::move(matches));
}

}  // namespace

AccessPathDecision ChooseAccessPath(const DocumentIndexes& idx,
                                    const IndexQuery& q, AccessPath force) {
  AccessPathDecision d;
  d.costs = EstimateAccessPathCosts(idx, q, &d.card);
  if (force != AccessPath::kAuto) {
    d.forced = true;
    d.chosen = force;
    return d;
  }
  d.chosen = AccessPath::kNav;
  double best = d.costs.nav;
  if (d.costs.sjoin_applicable && d.costs.sjoin <= best) {
    best = d.costs.sjoin;
    d.chosen = AccessPath::kSJoin;
  }
  if (d.costs.twig_applicable && d.costs.twig <= best) {
    best = d.costs.twig;
    d.chosen = AccessPath::kTwig;
  }
  if (d.costs.index_applicable && d.costs.index <= best) {
    best = d.costs.index;
    d.chosen = AccessPath::kIndex;
  }
  return d;
}

Result<std::optional<Sequence>> TryExecuteAccessPath(const PathExpr* e,
                                                     DynamicContext* ctx) {
  static metrics::Counter* synopsis_hits =
      metrics::MetricsRegistry::Global().counter("index.synopsis_hits");
  static metrics::Counter* value_hits =
      metrics::MetricsRegistry::Global().counter("index.value_hits");
  static metrics::Counter* fallbacks =
      metrics::MetricsRegistry::Global().counter("index.fallbacks");
  static metrics::Counter* chose_nav =
      metrics::MetricsRegistry::Global().counter("planner.nav");
  static metrics::Counter* chose_sjoin =
      metrics::MetricsRegistry::Global().counter("planner.sjoin");
  static metrics::Counter* chose_twig =
      metrics::MetricsRegistry::Global().counter("planner.twig");
  static metrics::Counter* chose_index =
      metrics::MetricsRegistry::Global().counter("planner.index");
  static metrics::Counter* forced_count =
      metrics::MetricsRegistry::Global().counter("planner.forced");

  std::optional<Sequence> declined;
  if (ctx == nullptr || ctx->provider == nullptr) return declined;
  std::optional<IndexQuery> plan = PlanIndexPath(*e);
  if (!plan.has_value()) {
    if (metrics::Enabled()) fallbacks->Add(1);
    return declined;
  }
  auto indexes_r = ctx->provider->GetDocumentIndexes(plan->doc_uri);
  if (!indexes_r.ok()) {
    // A missing document falls back so normal evaluation raises the
    // canonical fn:doc error; resource trips and injected faults during a
    // governed index build must surface as this query's failure.
    if (indexes_r.status().code() == StatusCode::kDynamicError) {
      if (metrics::Enabled()) fallbacks->Add(1);
      return declined;
    }
    return indexes_r.status();
  }
  std::shared_ptr<const DocumentIndexes> indexes = indexes_r.value();
  if (indexes == nullptr) return declined;  // Indexes disabled.

  AccessPathDecision decision =
      ChooseAccessPath(*indexes, *plan, ctx->force_access_path);
  if (metrics::Enabled() && decision.forced) forced_count->Add(1);

  std::optional<std::vector<NodeIndex>> nodes;
  switch (decision.chosen) {
    case AccessPath::kAuto:
    case AccessPath::kNav:
      // The cost model (or a forced override) picked plain navigation:
      // decline so the normal engines run the path.
      if (metrics::Enabled()) chose_nav->Add(1);
      return declined;
    case AccessPath::kIndex:
      nodes = AnswerIndexQuery(*indexes, *plan);
      if (nodes.has_value() && metrics::Enabled()) {
        chose_index->Add(1);
        (plan->HasPredicates() ? value_hits : synopsis_hits)->Add(1);
      }
      break;
    case AccessPath::kSJoin:
      if (ctx->governor != nullptr) XQP_RETURN_NOT_OK(ctx->governor->Poll());
      nodes = ExecuteSJoinChain(*indexes, *plan);
      if (nodes.has_value() && metrics::Enabled()) chose_sjoin->Add(1);
      break;
    case AccessPath::kTwig:
      if (ctx->governor != nullptr) XQP_RETURN_NOT_OK(ctx->governor->Poll());
      XQP_ASSIGN_OR_RETURN(nodes, ExecuteTwigChain(*indexes, *plan));
      if (nodes.has_value() && metrics::Enabled()) chose_twig->Add(1);
      break;
  }
  if (!nodes.has_value()) {
    if (metrics::Enabled()) fallbacks->Add(1);
    return declined;
  }
  Sequence out;
  out.reserve(nodes->size());
  for (NodeIndex n : *nodes) {
    out.push_back(Item(Node(indexes->doc_ptr(), n)));
  }
  if (ctx->governor != nullptr) {
    XQP_RETURN_NOT_OK(ctx->governor->Poll());
    XQP_RETURN_NOT_OK(ctx->governor->ChargeBytes(out.size() * sizeof(Item)));
  }
  return std::optional<Sequence>(std::move(out));
}

namespace {

/// AnnotateAccessPaths' walk; `chain_lhs` is true for the lhs of a path,
/// which belongs to its parent's chain.
void Annotate(Expr* root, const IndexPeek& peek, AccessPath force,
              bool chain_lhs) {
  if (root == nullptr) return;
  if (root->kind() == ExprKind::kPath) {
    auto* path = static_cast<PathExpr*>(root);
    // Decide first, then store once: a concurrent EXPLAIN of the same plan
    // must never see a transient reset.
    AccessPath chosen = AccessPath::kAuto;
    AccessPath declined = AccessPath::kAuto;
    uint64_t est = 0;
    if (path->index_candidate) {
      std::optional<IndexQuery> plan = PlanIndexPath(*path);
      if (plan.has_value()) {
        std::shared_ptr<const DocumentIndexes> indexes = peek(plan->doc_uri);
        if (indexes != nullptr) {
          AccessPathDecision d = ChooseAccessPath(*indexes, *plan, force);
          chosen = d.chosen == AccessPath::kAuto ? AccessPath::kNav : d.chosen;
          est = d.card.rows;
        }
      }
    } else if (force != AccessPath::kAuto && force != AccessPath::kNav &&
               !chain_lhs && IsDocAnchoredPath(*path)) {
      // A doc()-anchored chain the planner cannot answer runs on
      // navigation whatever was forced; say so on the chain's top path.
      chosen = AccessPath::kNav;
      declined = force;
    }
    path->access_path.store(chosen, std::memory_order_relaxed);
    path->access_est.store(est, std::memory_order_relaxed);
    path->access_declined.store(declined, std::memory_order_relaxed);
  }
  for (size_t i = 0; i < root->NumChildren(); ++i) {
    Annotate(root->child(i), peek, force,
             i == 0 && root->kind() == ExprKind::kPath);
  }
}

}  // namespace

void AnnotateAccessPaths(Expr* root, const IndexPeek& peek, AccessPath force) {
  Annotate(root, peek, force, /*chain_lhs=*/false);
}

}  // namespace xqp
