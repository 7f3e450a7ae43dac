#include "opt/cost.h"

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <vector>

namespace xqp {
namespace {

double Log2(double x) { return std::log2(std::max(2.0, x)); }

/// Number of equi-width buckets for the fallback selectivity histogram.
constexpr size_t kHistBuckets = 32;
/// A point (eq) query is assumed to match this share of its bucket.
constexpr double kHistPointShare = 0.125;

/// Fallback selectivity for predicates CountPredicateMatches cannot answer
/// exactly (typically a numeric comparison over mixed-type content, where
/// the numeric family stays unbuilt): estimate from a cheap equi-width
/// histogram over the numeric interpretation of the sorted value family.
/// Unparseable entries count toward the population but can never satisfy a
/// numeric comparison. nullopt when no family data exists at all — the
/// caller keeps its flat default.
std::optional<double> HistogramSelectivity(const DocumentIndexes& idx,
                                           const std::vector<int32_t>& frontier,
                                           const IndexPredicate& pred) {
  if (pred.positional || !pred.operand.IsNumeric()) return std::nullopt;
  const Document& doc = idx.doc();
  uint32_t tname = doc.FindNameId(pred.target.uri, pred.target.local);
  if (tname == kNoName) return 0.0;  // Never satisfied.
  NodeKind tkind =
      pred.target.attribute ? NodeKind::kAttribute : NodeKind::kElement;

  std::vector<double> vals;
  size_t population = 0;
  bool any_family = false;
  for (int32_t s : frontier) {
    int32_t t = idx.FindChild(s, tkind, tname);
    if (t < 0) continue;
    const DocumentIndexes::ValuePostings* vp = idx.values(t);
    if (vp == nullptr) continue;
    if (!vp->by_number.empty()) {
      any_family = true;
      population += vp->by_number.size();
      for (const auto& [d, n] : vp->by_number) {
        if (!std::isnan(d)) vals.push_back(d);
      }
    } else if (!vp->by_string.empty()) {
      any_family = true;
      population += vp->by_string.size();
      for (const auto& [sv, n] : vp->by_string) {
        const char* begin = sv.c_str();
        char* end = nullptr;
        double d = std::strtod(begin, &end);
        if (end != begin && *end == '\0' && !std::isnan(d)) {
          vals.push_back(d);
        }
      }
    }
  }
  if (!any_family) return std::nullopt;
  if (population == 0) return 0.0;
  if (vals.empty()) return 0.0;  // Nothing numeric: a match is impossible.

  auto [lo_it, hi_it] = std::minmax_element(vals.begin(), vals.end());
  double lo = *lo_it;
  double hi = *hi_it;
  double v = pred.operand.NumericAsDouble();
  if (std::isnan(v)) return pred.op == CompOp::kGenNe ? 1.0 : 0.0;

  double n = static_cast<double>(vals.size());
  double eq = 0;
  double below = 0;  // Strictly-less estimate.
  if (hi <= lo) {
    // Degenerate single-value family: the comparison is decidable.
    eq = v == lo ? n : 0;
    below = v > lo ? n : 0;
  } else {
    double width = (hi - lo) / static_cast<double>(kHistBuckets);
    std::vector<double> hist(kHistBuckets, 0);
    for (double d : vals) {
      auto b = static_cast<size_t>((d - lo) / width);
      hist[std::min(b, kHistBuckets - 1)] += 1.0;
    }
    if (v < lo) {
      below = 0;
    } else if (v > hi) {
      below = n;
    } else {
      auto b = std::min(static_cast<size_t>((v - lo) / width),
                        kHistBuckets - 1);
      for (size_t i = 0; i < b; ++i) below += hist[i];
      double frac = (v - (lo + static_cast<double>(b) * width)) / width;
      below += hist[b] * std::clamp(frac, 0.0, 1.0);
      eq = hist[b] * kHistPointShare;
    }
  }

  double matched = 0;
  switch (pred.op) {
    case CompOp::kGenEq: matched = eq; break;
    case CompOp::kGenNe: matched = n - eq; break;
    case CompOp::kGenLt: matched = below; break;
    case CompOp::kGenLe: matched = below + eq; break;
    case CompOp::kGenGt: matched = n - below - eq; break;
    case CompOp::kGenGe: matched = n - below; break;
    default: return std::nullopt;
  }
  return std::clamp(matched / static_cast<double>(population), 0.0, 1.0);
}

/// Shared chain walk: synopsis frontiers, exact per-step populations, and
/// estimated rows after predicates.
struct ChainWalk {
  std::vector<uint32_t> name_ids;              // Of each step's name.
  std::vector<std::vector<int32_t>> frontier;  // frontier[i] before step i.
  std::vector<double> population;              // N[i]: exact count at depth i.
  std::vector<double> rows;                    // est[i]: estimated rows.
  bool exact = true;
  bool index_applicable = true;
  double predicate_probe_cost = 0;
};

ChainWalk WalkChain(const DocumentIndexes& idx, const IndexQuery& q) {
  const size_t k = q.steps.size();
  ChainWalk w;
  w.name_ids.reserve(k);
  for (const IndexStep& st : q.steps) {
    w.name_ids.push_back(idx.doc().FindNameId(st.uri, st.local));
  }
  w.frontier.resize(k + 1);
  w.population.assign(k + 1, 1.0);
  w.rows.assign(k + 1, 1.0);
  w.frontier[0] = {0};
  const size_t pstep = q.HasPredicates() ? q.PredicateStep() : k;
  for (size_t i = 0; i < k; ++i) {
    w.frontier[i + 1] =
        ResolveSynopsisStep(idx, w.frontier[i], q.steps[i], w.name_ids[i]);
    w.population[i + 1] = static_cast<double>(
        CountSynopsisPostings(idx, w.frontier[i + 1]));
    // Steps after a predicate scale by the surviving fraction (the synopsis
    // keeps resolving the structure exactly; only the predicate's
    // reduction is statistical).
    double ratio = w.population[i] > 0
                       ? std::min(1.0, w.rows[i] / w.population[i])
                       : 0.0;
    w.rows[i + 1] = i < pstep ? w.population[i + 1]
                              : w.population[i + 1] * ratio;
    if (q.HasPredicates() && pstep == i) {
      double rows = w.rows[i + 1];
      for (const IndexPredicate& pred : q.predicates) {
        w.exact = false;
        if (pred.positional) {
          // At most one qualifying node per candidate parent; positions
          // past the first halve again (fewer parents have that many
          // children).
          double parents = q.steps[i].descendant
                               ? std::max(1.0, rows / 2.0)
                               : std::max(1.0, std::min(w.population[i], rows));
          rows = std::min(rows, parents);
          if (pred.operand.NumericAsDouble() > 1.0) rows *= 0.5;
          continue;
        }
        std::optional<size_t> m =
            CountPredicateMatches(idx, w.frontier[i + 1], pred);
        if (!m.has_value()) {
          // Unprovable predicate: the index cannot answer this chain, but
          // the cardinality estimate should still be data-driven when the
          // value family has entries — the equi-width histogram replaces
          // the old flat 0.25 default (kept only when there is no family
          // data to estimate from).
          w.index_applicable = false;
          rows *= HistogramSelectivity(idx, w.frontier[i + 1], pred)
                      .value_or(0.25);
          continue;
        }
        double sel = w.population[i + 1] > 0
                         ? std::min(1.0, static_cast<double>(*m) /
                                             w.population[i + 1])
                         : 0.0;
        rows *= sel;
        // One logarithmic probe into the sorted family plus the matched
        // run.
        w.predicate_probe_cost +=
            Log2(w.population[i + 1]) + static_cast<double>(*m);
      }
      w.rows[i + 1] = rows;
    }
  }
  return w;
}

CardEstimate CardFromWalk(const ChainWalk& w) {
  CardEstimate card;
  card.exact = w.exact;
  double rows = w.rows.back();
  if (!(rows >= 0.0)) rows = 0.0;
  card.rows = w.exact ? static_cast<uint64_t>(w.population.back())
                      : static_cast<uint64_t>(std::llround(rows));
  return card;
}

}  // namespace

JoinChainShape ClassifyJoinChain(const IndexQuery& q) {
  const size_t k = q.steps.size();
  JoinChainShape shape;
  shape.joinable = !q.HasPredicates() && k >= 1;
  shape.elem_steps = k;
  for (size_t i = 0; i < k && shape.joinable; ++i) {
    if (q.steps[i].attribute) {
      if (i + 1 == k && !q.steps[i].descendant) {
        shape.trailing_attr = true;
        shape.elem_steps = k - 1;
      } else {
        shape.joinable = false;
      }
    }
  }
  if (shape.elem_steps == 0) shape.joinable = false;
  return shape;
}

CardEstimate EstimateCardinality(const DocumentIndexes& idx,
                                 const IndexQuery& q) {
  return CardFromWalk(WalkChain(idx, q));
}

AccessPathCosts EstimateAccessPathCosts(const DocumentIndexes& idx,
                                        const IndexQuery& q,
                                        CardEstimate* card_out) {
  const Document& doc = idx.doc();
  const size_t k = q.steps.size();
  ChainWalk w = WalkChain(idx, q);
  if (card_out != nullptr) *card_out = CardFromWalk(w);
  AccessPathCosts out;
  const size_t pstep = q.HasPredicates() ? q.PredicateStep() : k;
  const std::vector<double>& N = w.population;
  const std::vector<double>& est = w.rows;

  // --- Navigation: per-step scans of the regions the engine would visit.
  // Descendant steps sweep whole subtrees (exact element populations from
  // the synopsis, scaled by the document's text-node expansion factor);
  // child steps scan the frontier's direct children; attribute steps touch
  // each candidate's attribute list.
  double total_postings = static_cast<double>(idx.subtree_postings(0));
  double expansion =
      total_postings > 0
          ? std::max(1.0, static_cast<double>(doc.NumNodes()) / total_postings)
          : 1.0;
  double nav = 0;
  for (size_t i = 0; i < k; ++i) {
    const IndexStep& st = q.steps[i];
    double scale =
        N[i] > 0 ? std::min(1.0, est[i] / N[i]) : 0.0;
    if (st.attribute && !st.descendant) {
      nav += est[i] * 2.0 + est[i + 1];
    } else if (st.descendant) {
      double subtotal = 0;
      for (int32_t s : w.frontier[i]) {
        subtotal += static_cast<double>(idx.subtree_postings(s));
      }
      nav += subtotal * expansion * scale + est[i + 1];
    } else {
      double kids = 0;
      for (int32_t s : w.frontier[i]) {
        for (int32_t c : idx.synopsis_node(s).children) {
          kids += static_cast<double>(idx.postings(c).size());
        }
      }
      nav += kids * expansion * scale + est[i + 1];
    }
    if (q.HasPredicates() && pstep == i) {
      // Per-candidate predicate evaluation: scan the target children and
      // compare.
      nav += N[i + 1] * 8.0;
    }
  }
  out.nav = nav;

  // --- Direct index answer: synopsis traversal (frontier sizes, tiny) +
  // the answer materialization. A multi-path frontier pays a full
  // concat-and-sort of the merged postings; a single-path frontier returns
  // its posting list as-is. Predicates pay the range probes, the
  // parent-mapping sort, and plain navigation for any steps after the
  // materialization point.
  double index_cost = 0;
  for (size_t i = 1; i <= k; ++i) {
    index_cost += static_cast<double>(w.frontier[i].size());
  }
  if (!q.HasPredicates()) {
    index_cost +=
        w.frontier[k].size() <= 1 ? N[k] : N[k] * Log2(N[k]);
  } else {
    index_cost += w.predicate_probe_cost;
    double rows_p = std::max(1.0, est[pstep + 1]);
    index_cost += rows_p * Log2(rows_p) + rows_p;
    for (size_t i = pstep + 1; i < k; ++i) {
      index_cost += est[i] * (q.steps[i].descendant ? 16.0 : 8.0) + est[i + 1];
    }
  }
  out.index = index_cost;
  out.index_applicable = w.index_applicable;

  // --- Join strategies: predicate-free element chains only (an optional
  // trailing attribute step navigates from the joined element set).
  JoinChainShape shape = ClassifyJoinChain(q);
  const size_t elem_steps = shape.elem_steps;
  const bool trailing_attr = shape.trailing_attr;

  if (shape.joinable) {
    // Binary structural-join cascade: each step is one stack semi-join
    // scanning the previous result plus the full (pre-sorted, cached)
    // per-tag posting list.
    double sjoin = 1.0;
    for (size_t i = 0; i < elem_steps; ++i) {
      sjoin += N[i] + static_cast<double>(idx.element_total(w.name_ids[i]));
    }
    if (trailing_attr) sjoin += N[elem_steps] * 2.0;
    sjoin += N[k];
    out.sjoin = sjoin;
    out.sjoin_applicable = true;

    // Holistic twig join: one synchronized pass over the lists — the exact
    // first-step postings (index-backed, paying the same merge a direct
    // index answer would for that step) plus the full per-tag lists.
    if (elem_steps >= 2) {
      double twig =
          w.frontier[1].size() <= 1 ? N[1] : N[1] * Log2(N[1]);
      twig += N[1];
      for (size_t i = 1; i < elem_steps; ++i) {
        twig += static_cast<double>(idx.element_total(w.name_ids[i]));
      }
      if (trailing_attr) twig += N[elem_steps] * 2.0;
      twig += N[k];
      out.twig = twig;
      out.twig_applicable = true;
    }
  }
  return out;
}

}  // namespace xqp
