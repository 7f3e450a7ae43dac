#include "exec/value_join.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <memory>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "base/metrics.h"
#include "opt/properties.h"

namespace xqp {
namespace value_join {

/// One execution's index for one join id (the DynamicContext memo entry).
struct Index {
  bool declined = false;
  Sequence domain;
  /// kHash: key string -> ascending domain positions, each once.
  std::unordered_map<std::string, std::vector<uint32_t>> hash;
  /// kRange: (key, domain position) sorted by key. The key is the item's
  /// smallest non-NaN key for `<`/`<=` and its largest for `>`/`>=`: the
  /// only one that can decide the existential comparison.
  std::vector<std::pair<double, uint32_t>> sorted;
};

namespace {

struct Counters {
  metrics::Counter* builds;
  metrics::Counter* probes;
  metrics::Counter* declined;
};

const Counters& GetCounters() {
  static const Counters c{
      metrics::MetricsRegistry::Global().counter("join.value.builds"),
      metrics::MetricsRegistry::Global().counter("join.value.probes"),
      metrics::MetricsRegistry::Global().counter("join.value.declined")};
  return c;
}

void CountDecline() {
  if (metrics::Enabled()) GetCounters().declined->Increment();
}

/// Mirrors `o op k` as `k op' o`.
CompOp Flip(CompOp op) {
  switch (op) {
    case CompOp::kGenLt: return CompOp::kGenGt;
    case CompOp::kGenLe: return CompOp::kGenGe;
    case CompOp::kGenGt: return CompOp::kGenLt;
    case CompOp::kGenGe: return CompOp::kGenLe;
    default: return op;
  }
}

bool IsHashKey(const AtomicValue& v) {
  return v.type() == XsType::kUntypedAtomic || v.type() == XsType::kString;
}

/// Fills `ix` from the domain; false declines (any error, any key type
/// outside the plan's case, or a domain too large for 32-bit positions).
bool Build(const Spec& spec, DynamicContext* ctx, const EvalFn& eval,
           Index* ix) {
  Result<Sequence> domain = eval(spec.domain);
  if (!domain.ok()) return false;
  ix->domain = std::move(domain).value();
  if (ix->domain.size() > std::numeric_limits<uint32_t>::max()) return false;
  const bool want_min =
      spec.op == CompOp::kGenLt || spec.op == CompOp::kGenLe;
  ResourceGovernor* gov = ctx->governor;
  uint64_t bytes = ix->domain.size() * sizeof(Item);
  for (size_t i = 0; i < ix->domain.size(); ++i) {
    if (gov != nullptr && !gov->Poll().ok()) return false;
    ctx->slots[size_t(spec.var_slot)] = LazySeq::FromItem(ix->domain[i]);
    Result<Sequence> raw = eval(spec.key);
    if (!raw.ok()) return false;
    const auto pos = static_cast<uint32_t>(i);
    if (spec.kind == ValueJoinKind::kHash) {
      for (const Item& k : Atomize(raw.value())) {
        const AtomicValue& v = k.AsAtomic();
        if (!IsHashKey(v)) return false;
        auto [it, inserted] = ix->hash.try_emplace(v.AsString());
        if (inserted) bytes += sizeof(*it) + it->first.size() + 16;
        if (it->second.empty() || it->second.back() != pos) {
          it->second.push_back(pos);
          bytes += sizeof(uint32_t);
        }
      }
      continue;
    }
    bool any = false;
    double best = 0;
    for (const Item& k : Atomize(raw.value())) {
      const AtomicValue& v = k.AsAtomic();
      if (v.type() != XsType::kDouble) return false;
      double d = v.AsRawDouble();
      if (std::isnan(d)) continue;  // A NaN key never satisfies the test.
      if (!any || (want_min ? d < best : d > best)) best = d;
      any = true;
    }
    if (any) {
      ix->sorted.emplace_back(best, pos);
      bytes += sizeof(ix->sorted.back());
    }
  }
  std::sort(ix->sorted.begin(), ix->sorted.end());
  return gov == nullptr || gov->ChargeBytes(bytes).ok();
}

/// The outer operand's deciding value for a range probe: its largest
/// non-NaN number for `<`/`<=`, its smallest for `>`/`>=`. nullopt
/// declines; `*none` is set when the operand has no non-NaN number (no
/// item can match).
std::optional<double> OuterBound(CompOp op, const Sequence& outer,
                                 bool* none) {
  const bool want_max = op == CompOp::kGenLt || op == CompOp::kGenLe;
  *none = true;
  double best = 0;
  for (const Item& item : outer) {
    const AtomicValue& v = item.AsAtomic();
    double d;
    if (v.type() == XsType::kDouble) {
      d = v.AsRawDouble();
    } else if (v.type() == XsType::kUntypedAtomic) {
      Result<AtomicValue> cast = v.CastTo(XsType::kDouble);
      if (!cast.ok()) return std::nullopt;
      d = cast.value().AsRawDouble();
    } else {
      return std::nullopt;
    }
    if (std::isnan(d)) continue;
    if (*none || (want_max ? d > best : d < best)) best = d;
    *none = false;
  }
  return best;
}

}  // namespace

Spec SpecOf(const FlworExpr& flwor, size_t ci) {
  const FlworExpr::Clause& c = flwor.clauses[ci];
  Spec spec;
  spec.id = c.join_id;
  spec.kind = c.join;
  spec.var_slot = c.var_slot;
  spec.domain = flwor.child(ci);
  const Expr* pred = flwor.child(ci + 1);
  if (pred->kind() == ExprKind::kLogical) {
    spec.rest = pred->child(1);
    pred = pred->child(0);
  }
  const auto* cmp = static_cast<const ComparisonExpr*>(pred);
  bool in_loop = false;
  const bool key_left = CountVarUses(cmp->child(0), c.var_slot, &in_loop) > 0;
  spec.key = cmp->child(key_left ? 0 : 1);
  spec.outer = cmp->child(key_left ? 1 : 0);
  spec.op = key_left ? cmp->op : Flip(cmp->op);
  return spec;
}

IndexState Prepare(const Spec& spec, DynamicContext* ctx,
                   const EvalFn& eval) {
  auto state = [](const Index& ix) {
    if (ix.declined) return IndexState::kDeclined;
    return ix.domain.empty() ? IndexState::kEmpty : IndexState::kReady;
  };
  const auto id = size_t(spec.id);
  if (id < ctx->value_joins.size() && ctx->value_joins[id] != nullptr) {
    return state(*ctx->value_joins[id]);
  }
  auto ix = std::make_shared<Index>();
  LazySeqPtr saved = ctx->slots[size_t(spec.var_slot)];
  if (!Build(spec, ctx, eval, ix.get())) {
    *ix = Index{};  // Keep only the verdict: the nested loop runs instead.
    ix->declined = true;
  }
  ctx->slots[size_t(spec.var_slot)] = std::move(saved);
  if (metrics::Enabled()) {
    const Counters& c = GetCounters();
    (ix->declined ? c.declined : c.builds)->Increment();
  }
  // Assigned after the build: evaluating E or K may have planned (and
  // grown the memo for) joins nested inside them.
  if (ctx->value_joins.size() <= id) ctx->value_joins.resize(id + 1);
  ctx->value_joins[id] = ix;
  return state(*ix);
}

std::optional<Sequence> Probe(const Spec& spec, DynamicContext* ctx,
                              const Sequence& outer) {
  const Index& ix = *ctx->value_joins[size_t(spec.id)];
  if (metrics::Enabled()) GetCounters().probes->Increment();
  Sequence atomized = Atomize(outer);
  std::vector<uint32_t> positions;
  if (spec.kind == ValueJoinKind::kHash) {
    for (const Item& item : atomized) {
      const AtomicValue& v = item.AsAtomic();
      if (!IsHashKey(v)) {
        CountDecline();
        return std::nullopt;
      }
      auto it = ix.hash.find(v.AsString());
      if (it == ix.hash.end()) continue;
      positions.insert(positions.end(), it->second.begin(), it->second.end());
    }
    if (atomized.size() > 1) {
      std::sort(positions.begin(), positions.end());
      positions.erase(std::unique(positions.begin(), positions.end()),
                      positions.end());
    }
  } else {
    bool none = true;
    std::optional<double> bound = OuterBound(spec.op, atomized, &none);
    if (!bound.has_value()) {
      CountDecline();
      return std::nullopt;
    }
    if (!none) {
      auto by_key = [](const std::pair<double, uint32_t>& e, double v) {
        return e.first < v;
      };
      auto key_by = [](double v, const std::pair<double, uint32_t>& e) {
        return v < e.first;
      };
      auto first = ix.sorted.begin();
      auto last = ix.sorted.end();
      switch (spec.op) {
        case CompOp::kGenLt:  // k < max(O)
          last = std::lower_bound(first, last, *bound, by_key);
          break;
        case CompOp::kGenLe:  // k <= max(O)
          last = std::upper_bound(first, last, *bound, key_by);
          break;
        case CompOp::kGenGt:  // k > min(O)
          first = std::upper_bound(first, last, *bound, key_by);
          break;
        default:  // kGenGe: k >= min(O)
          first = std::lower_bound(first, last, *bound, by_key);
          break;
      }
      for (auto it = first; it != last; ++it) positions.push_back(it->second);
      std::sort(positions.begin(), positions.end());
    }
  }
  Sequence out;
  out.reserve(positions.size());
  for (uint32_t pos : positions) out.push_back(ix.domain[pos]);
  return out;
}

std::optional<Sequence> Match(const Spec& spec, DynamicContext* ctx,
                              const EvalFn& eval) {
  switch (Prepare(spec, ctx, eval)) {
    case IndexState::kDeclined:
      return std::nullopt;
    case IndexState::kEmpty:
      return Sequence{};
    case IndexState::kReady:
      break;
  }
  Result<Sequence> outer = eval(spec.outer);
  if (!outer.ok()) {
    CountDecline();
    return std::nullopt;
  }
  return Probe(spec, ctx, outer.value());
}

}  // namespace value_join
}  // namespace xqp
