#include "index/index_planner.h"

#include <algorithm>
#include <cmath>
#include <iterator>
#include <unordered_map>


namespace xqp {
namespace {

/// True for descendant-or-self::node() — the "//" connector step.
bool IsDosConnector(const Expr* e) {
  if (e->kind() != ExprKind::kStep) return false;
  const auto* step = static_cast<const StepExpr*>(e);
  return step->axis == Axis::kDescendantOrSelf &&
         step->test.kind == NodeTest::Kind::kAnyKind;
}

/// A named forward step the synopsis can resolve: child / descendant /
/// attribute axis with a non-wildcard name test.
const StepExpr* AsIndexableStep(const Expr* e) {
  if (e->kind() != ExprKind::kStep) return nullptr;
  const auto* step = static_cast<const StepExpr*>(e);
  if (step->axis != Axis::kChild && step->axis != Axis::kDescendant &&
      step->axis != Axis::kAttribute) {
    return nullptr;
  }
  if (step->test.kind != NodeTest::Kind::kName || step->test.wildcard_local ||
      step->test.wildcard_uri) {
    return nullptr;
  }
  return step;
}

/// The anchor (leftmost expression) of a left-deep path chain and the
/// chain's number of rhs expressions.
const Expr* ChainAnchor(const Expr* e, size_t* length) {
  *length = 0;
  while (e->kind() == ExprKind::kPath) {
    ++*length;
    e = e->child(0);
  }
  return e;
}

/// The literal argument of a doc('uri') / document('uri') call, or null
/// for any other expression.
const LiteralExpr* LiteralDocUri(const Expr* anchor) {
  if (anchor->kind() != ExprKind::kFunctionCall) return nullptr;
  const auto* call = static_cast<const FunctionCallExpr*>(anchor);
  if (call->name.local != "doc" && call->name.local != "document") {
    return nullptr;
  }
  if (call->NumChildren() != 1 ||
      call->child(0)->kind() != ExprKind::kLiteral) {
    return nullptr;
  }
  const auto* lit = static_cast<const LiteralExpr*>(call->child(0));
  return lit->value.IsStringLike() ? lit : nullptr;
}

/// Flattens a left-deep path chain of `length` rhs expressions into their
/// sequence, leftmost first.
void FlattenChain(const Expr* e, size_t length,
                  std::vector<const Expr*>* steps) {
  steps->resize(length);
  for (size_t i = length; i-- > 0; e = e->child(0)) {
    (*steps)[i] = e->child(1);
  }
}

/// Mirrors `literal op step` into `step op' literal`.
CompOp FlipOp(CompOp op) {
  switch (op) {
    case CompOp::kGenLt: return CompOp::kGenGt;
    case CompOp::kGenLe: return CompOp::kGenGe;
    case CompOp::kGenGt: return CompOp::kGenLt;
    case CompOp::kGenGe: return CompOp::kGenLe;
    default: return op;  // eq / ne are symmetric.
  }
}

/// Parses one predicate expression into an IndexPredicate, or nullopt when
/// it is outside the fragment (non-comparison, non-literal operand, boolean
/// literal, value comparison, ...). A bare numeric literal becomes a
/// positional predicate (position() == value semantics, exactly as the
/// filter iterators special-case it).
std::optional<IndexPredicate> PlanPredicate(const Expr* p) {
  if (p->kind() == ExprKind::kLiteral) {
    const AtomicValue& v = static_cast<const LiteralExpr*>(p)->value;
    if (!v.IsNumeric()) return std::nullopt;
    IndexPredicate pred;
    pred.positional = true;
    pred.operand = v;
    return pred;
  }
  if (p->kind() != ExprKind::kComparison) return std::nullopt;
  const auto* cmp = static_cast<const ComparisonExpr*>(p);
  if (!IsGeneralComp(cmp->op)) return std::nullopt;
  const Expr* a = cmp->child(0);
  const Expr* b = cmp->child(1);
  const Expr* step_e = nullptr;
  const Expr* lit_e = nullptr;
  bool flipped = false;
  if (a->kind() == ExprKind::kStep && b->kind() == ExprKind::kLiteral) {
    step_e = a;
    lit_e = b;
  } else if (b->kind() == ExprKind::kStep && a->kind() == ExprKind::kLiteral) {
    step_e = b;
    lit_e = a;
    flipped = true;
  } else {
    return std::nullopt;
  }
  const auto* step = static_cast<const StepExpr*>(step_e);
  if (step->axis != Axis::kChild && step->axis != Axis::kAttribute) {
    return std::nullopt;
  }
  if (step->test.kind != NodeTest::Kind::kName || step->test.wildcard_local ||
      step->test.wildcard_uri) {
    return std::nullopt;
  }
  const AtomicValue& v = static_cast<const LiteralExpr*>(lit_e)->value;
  // Boolean (and exotic) operands take the untyped-vs-boolean cast route;
  // leave those to normal evaluation.
  if (!v.IsNumeric() && !v.IsStringLike()) return std::nullopt;
  IndexPredicate pred;
  pred.target.uri = step->test.uri;
  pred.target.local = step->test.local;
  pred.target.attribute = step->axis == Axis::kAttribute;
  pred.op = flipped ? FlipOp(cmp->op) : cmp->op;
  pred.operand = v;
  return pred;
}

/// Flattens an `and`-chain into its conjuncts (any other expression is its
/// own single conjunct).
void FlattenAnd(const Expr* e, std::vector<const Expr*>* out) {
  if (e->kind() == ExprKind::kLogical) {
    const auto* l = static_cast<const LogicalExpr*>(e);
    if (l->is_and) {
      FlattenAnd(l->child(0), out);
      FlattenAnd(l->child(1), out);
      return;
    }
  }
  out->push_back(e);
}

/// Attribute children of the synopsis subtree rooted at `s`, inclusive of
/// `s` itself — the resolution of `X//@name` (descendant-or-self + the
/// attribute axis reaches X's own attributes too).
void CollectAttrsInclusive(const DocumentIndexes& idx, int32_t s,
                           uint32_t name_id, std::vector<int32_t>* out) {
  int32_t a = idx.FindChild(s, NodeKind::kAttribute, name_id);
  if (a >= 0) out->push_back(a);
  for (int32_t c : idx.synopsis_node(s).children) {
    if (idx.synopsis_node(c).kind == NodeKind::kElement) {
      CollectAttrsInclusive(idx, c, name_id, out);
    }
  }
}

void SortUnique(std::vector<int32_t>* v) {
  std::sort(v->begin(), v->end());
  v->erase(std::unique(v->begin(), v->end()), v->end());
}

}  // namespace

std::vector<int32_t> ResolveSynopsisStep(const DocumentIndexes& idx,
                                         const std::vector<int32_t>& frontier,
                                         const IndexStep& st,
                                         uint32_t name_id) {
  std::vector<int32_t> next;
  if (name_id == kNoName) return next;  // Name absent from the document.
  NodeKind kind = st.attribute ? NodeKind::kAttribute : NodeKind::kElement;
  for (int32_t s : frontier) {
    if (!st.descendant) {
      int32_t c = idx.FindChild(s, kind, name_id);
      if (c >= 0) next.push_back(c);
    } else if (st.attribute) {
      CollectAttrsInclusive(idx, s, name_id, &next);
    } else {
      idx.FindDescendants(s, kind, name_id, &next);
    }
  }
  SortUnique(&next);
  return next;
}

std::vector<NodeIndex> MergedSynopsisPostings(
    const DocumentIndexes& idx, const std::vector<int32_t>& syn) {
  if (syn.size() == 1) return idx.postings(syn[0]);
  std::vector<NodeIndex> out;
  size_t total = 0;
  for (int32_t s : syn) total += idx.postings(s).size();
  out.reserve(total);
  for (int32_t s : syn) {
    const auto& p = idx.postings(s);
    out.insert(out.end(), p.begin(), p.end());
  }
  std::sort(out.begin(), out.end());
  return out;
}

namespace {

/// The entries of one path's sorted value postings that satisfy a general
/// comparison against a literal: at most two runs [first, second) of
/// positions in the list.
struct MatchingRuns {
  std::pair<size_t, size_t> runs[2];
  size_t count = 0;

  void Add(size_t begin, size_t end) {
    if (begin < end) runs[count++] = {begin, end};
  }
  size_t Total() const {
    size_t total = 0;
    for (size_t i = 0; i < count; ++i) {
      total += runs[i].second - runs[i].first;
    }
    return total;
  }
};

/// The runs satisfying `op` in a list of `size` sorted entries whose first
/// `ordered` can order against the literal (numbers keep NaN entries last)
/// and whose entries equal to it are [lo, hi). An unordered pair satisfies
/// only !=, which ApplyOpNanAware also says.
MatchingRuns RunsFor(CompOp op, size_t lo, size_t hi, size_t ordered,
                     size_t size) {
  MatchingRuns m;
  switch (op) {
    case CompOp::kGenEq: m.Add(lo, hi); break;
    case CompOp::kGenNe:
      m.Add(0, lo);
      m.Add(hi, size);
      break;
    case CompOp::kGenLt: m.Add(0, lo); break;
    case CompOp::kGenLe: m.Add(0, hi); break;
    case CompOp::kGenGt: m.Add(hi, ordered); break;
    case CompOp::kGenGe: m.Add(lo, ordered); break;
    default: break;
  }
  return m;
}

/// Range probe of one path's string postings, mirroring general-comparison
/// string semantics (byte-wise compare).
MatchingRuns StringRuns(const DocumentIndexes::ValuePostings& vp, CompOp op,
                        const std::string& val) {
  const auto& v = vp.by_string;
  auto lo = std::lower_bound(
      v.begin(), v.end(), val,
      [](const auto& p, const std::string& s) { return p.first < s; });
  auto hi = std::upper_bound(
      lo, v.end(), val,
      [](const std::string& s, const auto& p) { return s < p.first; });
  return RunsFor(op, lo - v.begin(), hi - v.begin(), v.size(), v.size());
}

/// Range probe of one path's numeric postings (NaN entries last). A NaN
/// literal orders against nothing, so only != matches, everything.
MatchingRuns NumberRuns(const DocumentIndexes::ValuePostings& vp, CompOp op,
                        double val) {
  const auto& v = vp.by_number;
  if (std::isnan(val)) return RunsFor(op, 0, 0, 0, v.size());
  auto nan_begin = std::partition_point(
      v.begin(), v.end(), [](const auto& p) { return !std::isnan(p.first); });
  auto lo = std::lower_bound(
      v.begin(), nan_begin, val,
      [](const auto& p, double d) { return p.first < d; });
  auto hi = std::upper_bound(
      lo, nan_begin, val,
      [](double d, const auto& p) { return d < p.first; });
  return RunsFor(op, lo - v.begin(), hi - v.begin(), nan_begin - v.begin(),
                 v.size());
}

/// Probes `pred` over the value postings of its target paths under
/// `frontier`, calling `fn(vp, runs)` for each path. False when the value
/// index cannot prove the predicate (disabled family, unindexable path,
/// a non-numeric path under a numeric operand): a single uncastable value
/// on the path means normal evaluation would raise FORG0001 the moment it
/// compares that node, and only the fallback plan can reproduce that.
template <typename Fn>
bool ProbeValues(const DocumentIndexes& idx,
                 const std::vector<int32_t>& frontier,
                 const IndexPredicate& pred, Fn&& fn) {
  const Document& doc = idx.doc();
  const bool numeric = pred.operand.IsNumeric();
  if (numeric && !(idx.value_kinds() & kIndexValueNumeric)) return false;
  if (!numeric && !(idx.value_kinds() & kIndexValueString)) return false;
  uint32_t tname = doc.FindNameId(pred.target.uri, pred.target.local);
  if (tname == kNoName) return true;  // Never satisfied.
  NodeKind tkind =
      pred.target.attribute ? NodeKind::kAttribute : NodeKind::kElement;
  const std::string sval = numeric ? std::string() : pred.operand.AsString();
  const double dval = numeric ? pred.operand.NumericAsDouble() : 0.0;
  for (int32_t s : frontier) {
    int32_t t = idx.FindChild(s, tkind, tname);
    if (t < 0) continue;
    const DocumentIndexes::ValuePostings* vp = idx.values(t);
    if (vp == nullptr || !vp->indexable) return false;
    if (numeric && !vp->all_numeric) return false;
    fn(*vp, numeric ? NumberRuns(*vp, pred.op, dval)
                    : StringRuns(*vp, pred.op, sval));
  }
  return true;
}

/// Applies the value predicate over a synopsis frontier: range-scans the
/// target paths' value postings, then maps matched targets to their parent
/// elements (the filtered step's nodes). nullopt = the value index cannot
/// prove this predicate; fall back.
std::optional<std::vector<NodeIndex>> ApplyPredicate(
    const DocumentIndexes& idx, const std::vector<int32_t>& frontier,
    const IndexPredicate& pred) {
  const Document& doc = idx.doc();
  const bool numeric = pred.operand.IsNumeric();
  std::vector<NodeIndex> targets;
  const bool proved = ProbeValues(
      idx, frontier, pred,
      [&](const DocumentIndexes::ValuePostings& vp, const MatchingRuns& m) {
        for (size_t i = 0; i < m.count; ++i) {
          for (size_t j = m.runs[i].first; j < m.runs[i].second; ++j) {
            targets.push_back(numeric ? vp.by_number[j].second
                                      : vp.by_string[j].second);
          }
        }
      });
  if (!proved) return std::nullopt;
  // Existential semantics: a base qualifies when any target child matched.
  std::vector<NodeIndex> bases;
  bases.reserve(targets.size());
  for (NodeIndex t : targets) bases.push_back(doc.node(t).parent);
  std::sort(bases.begin(), bases.end());
  bases.erase(std::unique(bases.begin(), bases.end()), bases.end());
  return bases;
}

/// Positional selection: the k-th node per parent, in document order. The
/// pool is doc-ordered, so the k-th occurrence under a parent is its k-th
/// qualifying child. Non-integral, non-positive, NaN, or out-of-range
/// positions match nothing (position() == value semantics).
std::vector<NodeIndex> SelectKthPerParent(const Document& doc,
                                          const std::vector<NodeIndex>& pool,
                                          double k) {
  std::vector<NodeIndex> out;
  if (!(k >= 1.0) || k != std::floor(k) ||
      k > static_cast<double>(pool.size())) {
    return out;
  }
  const uint64_t kk = static_cast<uint64_t>(k);
  std::unordered_map<NodeIndex, uint64_t> seen;
  for (NodeIndex n : pool) {
    if (++seen[doc.node(n).parent] == kk) out.push_back(n);
  }
  return out;
}

}  // namespace

std::vector<NodeIndex> NavigateMaterializedStep(
    const Document& doc, const std::vector<NodeIndex>& base,
    const IndexStep& st) {
  std::vector<NodeIndex> out;
  uint32_t name_id = doc.FindNameId(st.uri, st.local);
  if (name_id == kNoName) return out;
  for (NodeIndex n : base) {
    const NodeRecord& r = doc.node(n);
    if (st.attribute && st.descendant) {
      // Attributes anywhere in the subtree, owner included: attributes are
      // rows inside the region, so one region sweep finds them.
      for (NodeIndex d = n; d <= r.end; ++d) {
        const NodeRecord& dr = doc.node(d);
        if (dr.kind == NodeKind::kAttribute && dr.name_id == name_id) {
          out.push_back(d);
        }
      }
    } else if (st.attribute) {
      for (NodeIndex a = r.first_attr; a != kNullNode;
           a = doc.node(a).next_sibling) {
        if (doc.node(a).name_id == name_id) out.push_back(a);
      }
    } else if (st.descendant) {
      for (NodeIndex d = n + 1; d <= r.end; ++d) {
        const NodeRecord& dr = doc.node(d);
        if (dr.kind == NodeKind::kElement && dr.name_id == name_id) {
          out.push_back(d);
        }
      }
    } else {
      for (NodeIndex c = r.first_child; c != kNullNode;
           c = doc.node(c).next_sibling) {
        const NodeRecord& cr = doc.node(c);
        if (cr.kind == NodeKind::kElement && cr.name_id == name_id) {
          out.push_back(c);
        }
      }
    }
  }
  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
  return out;
}

bool IsDocAnchoredPath(const Expr& e) {
  if (e.kind() != ExprKind::kPath) return false;
  size_t length = 0;
  return LiteralDocUri(ChainAnchor(&e, &length)) != nullptr;
}

std::optional<IndexQuery> PlanIndexPath(const Expr& e) {
  if (e.kind() != ExprKind::kPath) return std::nullopt;
  size_t length = 0;
  // Only literal doc('uri') anchors: the synopsis lives per registered
  // document, and the uri must be known statically for EXPLAIN to show it.
  const LiteralExpr* lit = LiteralDocUri(ChainAnchor(&e, &length));
  if (lit == nullptr) return std::nullopt;

  std::vector<const Expr*> rhs;
  FlattenChain(&e, length, &rhs);
  IndexQuery q;
  q.doc_uri = lit->value.AsString();
  q.steps.reserve(length);
  bool pending_descendant = false;
  for (const Expr* raw : rhs) {
    const Expr* base = raw;
    const FilterExpr* filter = nullptr;
    if (raw->kind() == ExprKind::kFilter) {
      filter = static_cast<const FilterExpr*>(raw);
      base = filter->child(0);
    }
    if (IsDosConnector(base)) {
      if (filter != nullptr) return std::nullopt;  // Predicate on "//".
      pending_descendant = true;
      continue;
    }
    const StepExpr* step = AsIndexableStep(base);
    if (step == nullptr) return std::nullopt;
    IndexStep st;
    st.uri = step->test.uri;
    st.local = step->test.local;
    st.attribute = step->axis == Axis::kAttribute;
    st.descendant = step->axis == Axis::kDescendant || pending_descendant;
    pending_descendant = false;
    q.steps.push_back(std::move(st));
    if (filter != nullptr) {
      // All predicates must sit on a single step — the point where the
      // answer materializes and later steps switch to navigation.
      if (!q.predicates.empty()) return std::nullopt;
      bool has_positional = false;
      for (size_t pi = 1; pi < filter->NumChildren(); ++pi) {
        const Expr* bracket = filter->child(pi);
        std::optional<IndexPredicate> direct = PlanPredicate(bracket);
        if (direct.has_value() && direct->positional) {
          // Positional semantics are per parent context, which only holds
          // for child-axis steps: a merged "//" connector keeps child
          // semantics per descendant-or-self node (still grouped by the
          // node's parent), but a genuine descendant:: axis counts per
          // ancestor and attribute order is not positional. One position,
          // applied after any value predicates (later brackets see the
          // positionally filtered sequence, which we cannot reproduce).
          if (has_positional || step->axis != Axis::kChild) {
            return std::nullopt;
          }
          has_positional = true;
          direct->step = q.steps.size() - 1;
          q.predicates.push_back(std::move(*direct));
          continue;
        }
        if (has_positional) return std::nullopt;
        // A conjunction of value predicates: intersect the base sets. A
        // bare numeric literal inside `and` takes EBV semantics, not
        // positional ones — PlanPredicate would mis-classify it, so any
        // positional conjunct declines the whole path.
        std::vector<const Expr*> conjuncts;
        FlattenAnd(bracket, &conjuncts);
        for (const Expr* c : conjuncts) {
          std::optional<IndexPredicate> pred = PlanPredicate(c);
          if (!pred || pred->positional) return std::nullopt;
          pred->step = q.steps.size() - 1;
          q.predicates.push_back(std::move(*pred));
        }
      }
      if (q.predicates.empty()) return std::nullopt;
    }
  }
  if (pending_descendant || q.steps.empty()) return std::nullopt;
  return q;
}

std::optional<std::vector<NodeIndex>> AnswerIndexQuery(
    const DocumentIndexes& idx, const IndexQuery& q) {
  const Document& doc = idx.doc();
  std::vector<int32_t> frontier{0};  // Synopsis node 0: the document root.
  std::vector<NodeIndex> bases;
  bool materialized = false;
  for (size_t si = 0; si < q.steps.size(); ++si) {
    const IndexStep& st = q.steps[si];
    if (materialized) {
      bases = NavigateMaterializedStep(doc, bases, st);
      continue;
    }
    frontier = ResolveSynopsisStep(idx, frontier, st,
                                   doc.FindNameId(st.uri, st.local));
    if (q.HasPredicates() && q.PredicateStep() == si) {
      std::optional<std::vector<NodeIndex>> filtered;
      const IndexPredicate* positional = nullptr;
      for (const IndexPredicate& pred : q.predicates) {
        if (pred.positional) {
          positional = &pred;  // Always last (planner invariant).
          continue;
        }
        std::optional<std::vector<NodeIndex>> part =
            ApplyPredicate(idx, frontier, pred);
        if (!part.has_value()) return std::nullopt;  // Fall back.
        if (!filtered.has_value()) {
          filtered = std::move(part);
        } else {
          // Conjunction: both sets are sorted and duplicate-free.
          std::vector<NodeIndex> both;
          std::set_intersection(filtered->begin(), filtered->end(),
                                part->begin(), part->end(),
                                std::back_inserter(both));
          *filtered = std::move(both);
        }
      }
      if (positional != nullptr) {
        std::vector<NodeIndex> pool =
            filtered.has_value() ? std::move(*filtered)
                                 : MergedSynopsisPostings(idx, frontier);
        filtered = SelectKthPerParent(doc, pool,
                                      positional->operand.NumericAsDouble());
      }
      bases = std::move(*filtered);
      materialized = true;
    }
  }
  if (materialized) return bases;
  return MergedSynopsisPostings(idx, frontier);
}

size_t CountSynopsisPostings(const DocumentIndexes& idx,
                             const std::vector<int32_t>& syn) {
  size_t total = 0;
  for (int32_t s : syn) total += idx.postings(s).size();
  return total;
}

std::optional<size_t> CountPredicateMatches(
    const DocumentIndexes& idx, const std::vector<int32_t>& frontier,
    const IndexPredicate& pred) {
  if (pred.positional) return std::nullopt;
  size_t total = 0;
  const bool proved = ProbeValues(
      idx, frontier, pred,
      [&](const DocumentIndexes::ValuePostings&, const MatchingRuns& m) {
        total += m.Total();
      });
  if (!proved) return std::nullopt;
  return total;
}

}  // namespace xqp
