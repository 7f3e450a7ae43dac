#include "exec/operators.h"

#include "base/limits.h"
#include "exec/arithmetic.h"
#include "exec/compare.h"
#include "exec/constructor.h"
#include "exec/type_match.h"

namespace xqp {

namespace {

/// `in` atomized: `in` itself when it is already all atomic (the common
/// case for arithmetic and comparisons), else its copy in `scratch`.
const Sequence& Atomized(const Sequence& in, Sequence* scratch) {
  for (const Item& item : in) {
    if (item.IsNode()) {
      *scratch = Atomize(in);
      return *scratch;
    }
  }
  return in;
}

/// `value cast as target` (`target?` when `optional`) on an atomized
/// operand; nullopt for an empty operand of an optional cast.
Result<std::optional<AtomicValue>> Cast(const Sequence& value, XsType target,
                                        bool optional) {
  if (value.empty()) {
    if (optional) return std::optional<AtomicValue>();
    return Status::TypeError("cast of empty sequence to non-optional type");
  }
  if (value.size() != 1) return Status::TypeError("cast requires a singleton");
  XQP_ASSIGN_OR_RETURN(AtomicValue cast, value[0].AsAtomic().CastTo(target));
  return std::optional<AtomicValue>(std::move(cast));
}

/// `lo to hi`, polling the governor and charging it every 1024 items: a
/// range can materialize an arbitrarily large sequence in one step.
Status MaterializeRange(const Sequence& lo, const Sequence& hi,
                        ResourceGovernor* governor, Sequence* out) {
  XQP_ASSIGN_OR_RETURN(auto bounds, RangeBounds(lo, hi));
  out->clear();
  if (!bounds.has_value()) return Status::OK();
  for (int64_t v = bounds->first; v <= bounds->second; ++v) {
    if (governor != nullptr && (out->size() & 1023) == 0) {
      XQP_RETURN_NOT_OK(governor->Poll());
      XQP_RETURN_NOT_OK(governor->ChargeBytes(1024 * sizeof(Item)));
    }
    out->push_back(Item(AtomicValue::Integer(v)));
    if (v == bounds->second) break;  // ++v would overflow at INT64_MAX.
  }
  return Status::OK();
}

/// Makes `*out` the result `r`, or returns its error.
Status Assign(Result<Sequence> r, Sequence* out) {
  XQP_RETURN_NOT_OK(r.status());
  *out = std::move(r).value();
  return Status::OK();
}

/// Makes `*out` the singleton `item`, reusing its capacity.
Status Single(Item item, Sequence* out) {
  out->clear();
  out->push_back(std::move(item));
  return Status::OK();
}

}  // namespace

Result<std::optional<std::pair<int64_t, int64_t>>> RangeBounds(
    const Sequence& lo, const Sequence& hi) {
  if (lo.empty() || hi.empty()) {
    return std::optional<std::pair<int64_t, int64_t>>();
  }
  if (lo.size() != 1 || hi.size() != 1) {
    return Status::TypeError("range operands must be singletons");
  }
  XQP_ASSIGN_OR_RETURN(AtomicValue lv,
                       lo[0].Atomized().CastTo(XsType::kInteger));
  XQP_ASSIGN_OR_RETURN(AtomicValue hv,
                       hi[0].Atomized().CastTo(XsType::kInteger));
  return std::optional<std::pair<int64_t, int64_t>>({lv.AsInt(), hv.AsInt()});
}

Status ApplyOperator(const Expr& e, std::span<const Sequence> operands,
                     DynamicContext* ctx, Sequence* out) {
  Sequence scratch[2];
  switch (e.kind()) {
    case ExprKind::kRange:
      return MaterializeRange(operands[0], operands[1], ctx->governor, out);
    case ExprKind::kArithmetic:
      return Assign(EvalArithmetic(static_cast<const ArithmeticExpr&>(e).op,
                                   Atomized(operands[0], &scratch[0]),
                                   Atomized(operands[1], &scratch[1])),
                    out);
    case ExprKind::kUnary:
      return Assign(EvalUnary(static_cast<const UnaryExpr&>(e).negate,
                              Atomized(operands[0], &scratch[0])),
                    out);
    case ExprKind::kComparison: {
      const CompOp op = static_cast<const ComparisonExpr&>(e).op;
      if (!IsValueComp(op) && !IsGeneralComp(op)) {
        // Node comparisons take their operands unatomized.
        return Assign(EvalNodeComparison(op, operands[0], operands[1]), out);
      }
      const Sequence& lhs = Atomized(operands[0], &scratch[0]);
      const Sequence& rhs = Atomized(operands[1], &scratch[1]);
      if (IsValueComp(op)) {
        return Assign(EvalValueComparison(op, lhs, rhs), out);
      }
      XQP_ASSIGN_OR_RETURN(bool b, EvalGeneralComparison(op, lhs, rhs));
      return Single(Item(AtomicValue::Boolean(b)), out);
    }
    case ExprKind::kCastAs: {
      const auto& cast = static_cast<const CastExpr&>(e);
      XQP_ASSIGN_OR_RETURN(std::optional<AtomicValue> value,
                           Cast(Atomized(operands[0], &scratch[0]),
                                cast.target, cast.optional));
      if (!value.has_value()) {
        out->clear();
        return Status::OK();
      }
      return Single(Item(std::move(*value)), out);
    }
    case ExprKind::kCastableAs: {
      const auto& cast = static_cast<const CastableExpr&>(e);
      const bool ok = Cast(Atomized(operands[0], &scratch[0]), cast.target,
                           cast.optional)
                          .ok();
      return Single(Item(AtomicValue::Boolean(ok)), out);
    }
    case ExprKind::kInstanceOf: {
      const SequenceType& type = static_cast<const InstanceOfExpr&>(e).type;
      return Single(
          Item(AtomicValue::Boolean(MatchesSequenceType(operands[0], type))),
          out);
    }
    case ExprKind::kUnion:
    case ExprKind::kIntersectExcept:
      return Assign(EvalSetOperation(e, operands[0], operands[1]), out);
    case ExprKind::kElementCtor:
    case ExprKind::kAttributeCtor:
    case ExprKind::kTextCtor:
    case ExprKind::kCommentCtor:
    case ExprKind::kPiCtor:
    case ExprKind::kDocumentCtor:
      return construct::Build(e, operands, &ctx->arena, out);
    default:
      return Status::Internal("not a materializing operator");
  }
}

}  // namespace xqp
