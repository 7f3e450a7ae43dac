#include <algorithm>
#include <string>
#include <string_view>
#include <vector>

#include "exec/interpreter.h"
#include "opt/properties.h"
#include "opt/rewriter.h"
#include "query/expr.h"

namespace xqp {
namespace opt_internal {

namespace {

/// Already in folded form (a literal, or a flat sequence of literals)?
bool IsFoldedForm(const Expr* e) {
  if (e->kind() == ExprKind::kLiteral) return true;
  if (e->kind() != ExprKind::kSequence) return false;
  for (size_t i = 0; i < e->NumChildren(); ++i) {
    if (e->child(i)->kind() != ExprKind::kLiteral) return false;
  }
  return true;
}

/// Evaluates a constant expression at compile time and replaces it with
/// its literal form. Evaluation errors leave the expression untouched (it
/// may sit on a dead branch).
void FoldConstant(ExprPtr& e, RuleContext* ctx) {
  if (IsFoldedForm(e.get()) || !e->props.constant) return;
  DynamicContext dctx;
  dctx.module = ctx->module;
  auto result = EvalExpr(e.get(), &dctx);
  if (!result.ok()) return;
  const Sequence& seq = result.value();
  if (seq.size() > 64) return;  // Don't bloat the plan with huge literals.
  for (const Item& item : seq) {
    if (!item.IsAtomic()) return;  // Only atomic results are foldable.
  }
  if (seq.size() == 1) {
    e = std::make_unique<LiteralExpr>(seq[0].AsAtomic());
  } else {
    auto folded = std::make_unique<SequenceExpr>();
    for (const Item& item : seq) {
      folded->AddChild(std::make_unique<LiteralExpr>(item.AsAtomic()));
    }
    e = std::move(folded);
  }
  ctx->Count("constant-folding");
}

bool LiteralBool(const Expr* e, bool* value) {
  if (e->kind() != ExprKind::kLiteral) return false;
  const auto& v = static_cast<const LiteralExpr*>(e)->value;
  // Use the EBV of the literal.
  Sequence seq{Item(v)};
  auto b = EffectiveBooleanValue(seq);
  if (!b.ok()) return false;
  *value = b.value();
  return true;
}

ExprPtr MakeBooleanLiteral(bool b) {
  return std::make_unique<LiteralExpr>(AtomicValue::Boolean(b));
}

/// Wraps `e` in fn:boolean(...) to preserve the EBV-to-boolean coercion.
ExprPtr WrapBoolean(ExprPtr e) {
  auto call = std::make_unique<FunctionCallExpr>(
      QName(std::string(kFnNamespace), "fn", "boolean"));
  call->builtin = static_cast<int>(Builtin::kBoolean);
  call->AddChild(std::move(e));
  return call;
}

/// Boolean/conditional algebraic rules: if(const) pruning, and/or with
/// literal operands ("algebraic properties of Boolean operators" — the
/// spec's non-determinism licenses `false and error => false`).
void SimplifyBoolean(ExprPtr& e, RuleContext* ctx) {
  if (e->kind() == ExprKind::kIf) {
    bool cond;
    if (LiteralBool(e->child(0), &cond)) {
      e = e->TakeChild(cond ? 1 : 2);
      ctx->Count("if-pruning");
      return;
    }
  }
  if (e->kind() == ExprKind::kLogical) {
    auto* logic = static_cast<LogicalExpr*>(e.get());
    for (int side = 0; side < 2; ++side) {
      bool value;
      if (!LiteralBool(e->child(side), &value)) continue;
      if (logic->is_and && !value) {
        e = MakeBooleanLiteral(false);
        ctx->Count("boolean-shortcircuit");
        return;
      }
      if (!logic->is_and && value) {
        e = MakeBooleanLiteral(true);
        ctx->Count("boolean-shortcircuit");
        return;
      }
      // Neutral element: drop it, keep the EBV of the other side.
      e = WrapBoolean(e->TakeChild(1 - side));
      ctx->Count("boolean-neutral");
      return;
    }
  }
  // fn:boolean(fn:boolean(x)) => fn:boolean(x); fn:not(fn:not(x)) =>
  // fn:boolean(x).
  if (e->kind() == ExprKind::kFunctionCall) {
    auto* call = static_cast<FunctionCallExpr*>(e.get());
    if (call->builtin == static_cast<int>(Builtin::kBoolean) &&
        call->NumChildren() == 1 &&
        call->child(0)->kind() == ExprKind::kFunctionCall) {
      auto* inner = static_cast<FunctionCallExpr*>(call->child(0));
      if (inner->builtin == static_cast<int>(Builtin::kBoolean) ||
          inner->builtin == static_cast<int>(Builtin::kNot)) {
        e = e->TakeChild(0);
        ctx->Count("boolean-idempotence");
        return;
      }
    }
    if (call->builtin == static_cast<int>(Builtin::kNot) &&
        call->NumChildren() == 1 &&
        call->child(0)->kind() == ExprKind::kFunctionCall) {
      auto* inner = static_cast<FunctionCallExpr*>(call->child(0));
      if (inner->builtin == static_cast<int>(Builtin::kNot) &&
          inner->NumChildren() == 1) {
        e = WrapBoolean(inner->TakeChild(0));
        ctx->Count("double-negation");
        return;
      }
    }
  }
}

/// ToString() of a subtree folded into a polynomial hash (mod 2^64) plus
/// the text's length. Appending text b to text a gives hash(a) * B^|b| +
/// hash(b), so a node's value follows from its own fixed text and its
/// children's values without building a string: nodes with equal ToString()
/// always get equal values, and `len` is the exact ToString() length.
struct TextHash {
  static constexpr uint64_t kBase = 0x100000001b3ull;
  static constexpr uint64_t kBase2 = kBase * kBase;
  static constexpr uint64_t kBase3 = kBase2 * kBase;
  static constexpr uint64_t kBase4 = kBase2 * kBase2;

  uint64_t hash = 0;
  uint64_t pow = 1;  // kBase^len.
  size_t len = 0;

  void Append(std::string_view text) {
    const auto* p = reinterpret_cast<const unsigned char*>(text.data());
    size_t n = text.size();
    len += n;
    // Four characters per step: the same polynomial, shorter dependency
    // chain.
    for (; n >= 4; n -= 4, p += 4) {
      hash = hash * kBase4 + (p[0] * kBase3 + p[1] * kBase2 + p[2] * kBase + p[3]);
      pow *= kBase4;
    }
    for (; n > 0; --n, ++p) {
      hash = hash * kBase + *p;
      pow *= kBase;
    }
  }
  void Append(const TextHash& t) {
    hash = hash * t.pow + t.hash;
    pow *= t.pow;
    len += t.len;
  }
};

/// A child's TextHash, or the child itself when it is a leaf that is never
/// a site: its text is hashed only if its parent needs it.
struct ChildHash {
  TextHash text;
  const Expr* deferred_leaf = nullptr;
};

/// Hashes one node's ToString() from its children's TextHash values.
class HashPrinter : public ExprPrinter {
 public:
  HashPrinter(const Expr& node, const ChildHash* child_hashes)
      : node_(node), child_hashes_(child_hashes) {}

  void Text(std::string_view text) override { result.Append(text); }
  void Child(const Expr& child) override {
    // Print() emits children in index order; search only if one does not.
    size_t i = next_;
    if (i >= node_.NumChildren() || node_.child(i) != &child) {
      for (i = 0; node_.child(i) != &child; ++i) {
      }
    }
    next_ = i + 1;
    const ChildHash& c = child_hashes_[i];
    if (c.deferred_leaf != nullptr) {
      HashPrinter leaf(*c.deferred_leaf, nullptr);
      c.deferred_leaf->Print(leaf);
      result.Append(leaf.result);
    } else {
      result.Append(c.text);
    }
  }

  TextHash result;

 private:
  const Expr& node_;
  const ChildHash* child_hashes_;
  size_t next_ = 0;
};

/// One post-order walk over a FLWOR: every node's TextHash and whether it
/// reads a slot bound inside the FLWOR, each computed from its children's,
/// plus the nodes that qualify as factorization sites.
class CseScan {
 public:
  struct Site {
    Expr* parent;
    size_t index;
    uint64_t hash;
    size_t len;  // Exact ToString() length.
  };

  /// Scans `flwor`, reusing the buffers of earlier scans.
  void Run(FlworExpr* flwor) {
    slots_.clear();
    CollectBoundSlots(flwor, &slots_);
    bound_.assign(bound_.size(), false);
    for (int slot : slots_) {
      if (slot < 0) continue;
      if (static_cast<size_t>(slot) >= bound_.size()) bound_.resize(slot + 1);
      bound_[slot] = true;
    }
    sites.clear();
    hashes_.clear();
    Visit(flwor, nullptr, 0);
  }

  /// Qualifying sites in post-order (the order the groups list them in).
  std::vector<Site> sites;
  /// Grouping buffers of FactorCommonSubexpressions.
  std::vector<uint32_t> order;
  std::vector<std::pair<std::string, uint32_t>> bucket;

 private:
  /// Visits the subtree of `node` (child `index` of `parent`, or the root
  /// when `parent` is null); returns whether it reads a bound slot, and
  /// leaves its TextHash on top of the hash stack.
  bool Visit(Expr* node, Expr* parent, size_t index) {
    bool reads_bound = false;
    if (node->kind() == ExprKind::kVarRef) {
      const auto* var = static_cast<const VarRefExpr*>(node);
      reads_bound = !var->is_global && var->slot >= 0 &&
                    static_cast<size_t>(var->slot) < bound_.size() &&
                    bound_[var->slot];
    }
    if (NeverSite(*node)) {
      hashes_.push_back(ChildHash{TextHash(), node});
      return reads_bound;
    }
    const size_t base = hashes_.size();
    for (size_t i = 0; i < node->NumChildren(); ++i) {
      reads_bound |= Visit(node->child(i), node, i);
    }
    TextHash text;
    // A node reading a bound slot is no site, and neither is any ancestor
    // (they read it too), so its text is never needed.
    if (!reads_bound) {
      HashPrinter printer(*node, hashes_.data() + base);
      node->Print(printer);
      text = printer.result;
    }
    hashes_.resize(base);
    hashes_.push_back(ChildHash{text, nullptr});
    if (parent != nullptr && !reads_bound && IsSite(*node, text)) {
      sites.push_back(Site{parent, index, text.hash, text.len});
    }
    return reads_bound;
  }

  /// Leaves too trivial to hoist (literals, variables, the context item,
  /// bare steps).
  static bool NeverSite(const Expr& e) {
    switch (e.kind()) {
      case ExprKind::kLiteral:
      case ExprKind::kVarRef:
      case ExprKind::kContextItem:
      case ExprKind::kStep:
        return e.NumChildren() == 0;
      default:
        return false;
    }
  }

  /// Pure, focus-free subexpressions whose text is long enough to pay for
  /// a binding.
  static bool IsSite(const Expr& e, const TextHash& text) {
    const ExprProps& p = e.props;
    if (!p.analyzed || p.creates_nodes || p.uses_context || p.uses_position ||
        p.uses_last) {
      return false;
    }
    return text.len >= 16;
  }

  std::vector<int> slots_;
  std::vector<bool> bound_;
  std::vector<ChildHash> hashes_;
};

/// Common-subexpression factorization within one FLWOR: pure, loop-
/// invariant subexpressions occurring twice or more are hoisted into a
/// fresh let clause (the paper's buffer-iterator-factory rewrite; its
/// error-timing caveat — "guaranteed only if runtime implements
/// consistently lazy evaluation" — applies to the eager engine).
///
/// The hoisted group is the one with the longest text, ties going to the
/// lexicographically smallest. Sites are bucketed by the length and hash
/// of their ToString() first; only members of a bucket with two or more
/// sites are rendered, longest buckets first and only until a confirmed
/// group outlengths the rest, and a group is the sites whose texts are
/// equal.
void FactorCommonSubexpressions(FlworExpr* flwor, RuleContext* ctx) {
  thread_local CseScan scan;
  scan.Run(flwor);
  const std::vector<CseScan::Site>& sites = scan.sites;
  if (sites.size() < 2) return;

  // Bucket by (text length, hash), longest texts first, each bucket in
  // post-order.
  std::vector<uint32_t>& order = scan.order;
  order.resize(sites.size());
  for (uint32_t i = 0; i < order.size(); ++i) order[i] = i;
  auto same_bucket = [&](uint32_t a, uint32_t b) {
    return sites[a].len == sites[b].len && sites[a].hash == sites[b].hash;
  };
  std::sort(order.begin(), order.end(), [&](uint32_t a, uint32_t b) {
    if (sites[a].len != sites[b].len) return sites[a].len > sites[b].len;
    if (sites[a].hash != sites[b].hash) return sites[a].hash < sites[b].hash;
    return a < b;
  });

  std::string best_key;
  std::vector<uint32_t> best;
  std::vector<std::pair<std::string, uint32_t>>& bucket = scan.bucket;
  for (size_t lo = 0; lo < order.size();) {
    // Every later bucket holds shorter texts than the group already found.
    if (!best.empty() && sites[order[lo]].len < best_key.size()) break;
    size_t hi = lo + 1;
    while (hi < order.size() && same_bucket(order[hi], order[lo])) ++hi;
    if (hi - lo >= 2) {
      bucket.clear();
      for (size_t k = lo; k < hi; ++k) {
        const CseScan::Site& site = sites[order[k]];
        bucket.emplace_back(site.parent->child(site.index)->ToString(),
                            order[k]);
      }
      // Equal texts end up adjacent, each run in post-order.
      std::sort(bucket.begin(), bucket.end());
      for (size_t a = 0; a < bucket.size();) {
        size_t b = a + 1;
        while (b < bucket.size() && bucket[b].first == bucket[a].first) ++b;
        const std::string& key = bucket[a].first;
        if (b - a >= 2 && (best.empty() || key < best_key)) {
          best_key = key;
          best.clear();
          for (size_t k = a; k < b; ++k) best.push_back(bucket[k].second);
        }
        a = b;
      }
    }
    lo = hi;
  }
  if (best.empty()) return;

  int slot = (*ctx->next_slot)++;
  QName var_name("", "", "xqp-cse-" + std::to_string(slot));
  const CseScan::Site& first = sites[best[0]];
  ExprPtr hoisted = first.parent->child(first.index)->Clone();
  for (uint32_t i : best) {
    auto ref = std::make_unique<VarRefExpr>(var_name);
    ref->slot = slot;
    sites[i].parent->SetChild(sites[i].index, std::move(ref));
  }
  FlworExpr::Clause clause;
  clause.type = FlworExpr::Clause::Type::kLet;
  clause.var = var_name;
  clause.var_slot = slot;
  flwor->clauses.insert(flwor->clauses.begin(), clause);
  flwor->InsertChild(0, std::move(hoisted));
  ctx->Count("cse-factorization");
}

}  // namespace

Status ApplyCoreRules(ExprPtr& e, RuleContext* ctx) {
  for (size_t i = 0; i < e->NumChildren(); ++i) {
    XQP_RETURN_NOT_OK(ApplyCoreRules(e->child_slot(i), ctx));
  }
  if (ctx->options->constant_folding) FoldConstant(e, ctx);
  if (ctx->options->boolean_simplification) SimplifyBoolean(e, ctx);
  if (ctx->options->cse && e->kind() == ExprKind::kFlwor) {
    FactorCommonSubexpressions(static_cast<FlworExpr*>(e.get()), ctx);
  }
  return Status::OK();
}

}  // namespace opt_internal
}  // namespace xqp
