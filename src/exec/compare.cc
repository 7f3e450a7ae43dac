#include "exec/compare.h"

#include <algorithm>
#include <cmath>

namespace xqp {

namespace {

Status IncomparableError(const AtomicValue& a, const AtomicValue& b) {
  return Status::TypeError("cannot compare " + std::string(XsTypeName(a.type())) +
                           " with " + std::string(XsTypeName(b.type())));
}

CmpResult CompareDoubles(double x, double y) {
  if (std::isnan(x) || std::isnan(y)) return CmpResult::kUnordered;
  if (x < y) return CmpResult::kLess;
  if (x > y) return CmpResult::kGreater;
  return CmpResult::kEqual;
}

CmpResult CompareStrings(const std::string& x, const std::string& y) {
  int c = x.compare(y);
  return c < 0 ? CmpResult::kLess : c > 0 ? CmpResult::kGreater : CmpResult::kEqual;
}

Result<bool> ApplyOp(CompOp op, CmpResult r) {
  if (r == CmpResult::kUnordered) return false;  // NaN comparisons are false.
  int c = static_cast<int>(r);
  switch (op) {
    case CompOp::kValueEq:
    case CompOp::kGenEq:
      return c == 0;
    case CompOp::kValueNe:
    case CompOp::kGenNe:
      return c != 0;
    case CompOp::kValueLt:
    case CompOp::kGenLt:
      return c < 0;
    case CompOp::kValueLe:
    case CompOp::kGenLe:
      return c <= 0;
    case CompOp::kValueGt:
    case CompOp::kGenGt:
      return c > 0;
    case CompOp::kValueGe:
    case CompOp::kGenGe:
      return c >= 0;
    default:
      return Status::Internal("ApplyOp: not an ordering operator");
  }
}

/// For != with NaN the result is true per IEEE semantics in XPath.
Result<bool> ApplyOpNanAware(CompOp op, CmpResult r) {
  if (r == CmpResult::kUnordered &&
      (op == CompOp::kValueNe || op == CompOp::kGenNe)) {
    return true;
  }
  return ApplyOp(op, r);
}

}  // namespace

Result<CmpResult> CompareAtomicValues(const AtomicValue& a,
                                      const AtomicValue& b) {
  // untypedAtomic behaves like xs:string in value comparisons.
  bool a_str = a.IsStringLike();
  bool b_str = b.IsStringLike();
  if (a_str && b_str) return CompareStrings(a.AsString(), b.AsString());
  if (a.IsNumeric() && b.IsNumeric()) {
    if (a.type() == XsType::kInteger && b.type() == XsType::kInteger) {
      int64_t x = a.AsInt();
      int64_t y = b.AsInt();
      return x < y ? CmpResult::kLess
                   : x > y ? CmpResult::kGreater : CmpResult::kEqual;
    }
    return CompareDoubles(a.NumericAsDouble(), b.NumericAsDouble());
  }
  if (a.type() == XsType::kBoolean && b.type() == XsType::kBoolean) {
    int x = a.AsBool() ? 1 : 0;
    int y = b.AsBool() ? 1 : 0;
    return x < y ? CmpResult::kLess
                 : x > y ? CmpResult::kGreater : CmpResult::kEqual;
  }
  if (a.type() == XsType::kQName && b.type() == XsType::kQName) {
    return a.AsString() == b.AsString() ? CmpResult::kEqual
                                        : CmpResult::kUnordered;
  }
  return IncomparableError(a, b);
}

Result<Sequence> EvalValueComparison(CompOp op, const Sequence& lhs,
                                     const Sequence& rhs) {
  if (lhs.empty() || rhs.empty()) return Sequence{};
  if (lhs.size() != 1 || rhs.size() != 1) {
    return Status::TypeError("value comparison requires singleton operands");
  }
  XQP_ASSIGN_OR_RETURN(CmpResult r, CompareAtomicValues(lhs[0].AsAtomic(),
                                                        rhs[0].AsAtomic()));
  XQP_ASSIGN_OR_RETURN(bool out, ApplyOpNanAware(op, r));
  return Sequence{Item(AtomicValue::Boolean(out))};
}

namespace {

/// Dynamic-cast rules for one general-comparison pair.
Result<CmpResult> GeneralPairCompare(const AtomicValue& a,
                                     const AtomicValue& b) {
  bool a_untyped = a.type() == XsType::kUntypedAtomic;
  bool b_untyped = b.type() == XsType::kUntypedAtomic;
  if (a_untyped || b_untyped) {
    const AtomicValue& u = a_untyped ? a : b;
    const AtomicValue& o = a_untyped ? b : a;
    if (o.IsNumeric()) {
      XQP_ASSIGN_OR_RETURN(AtomicValue cast, u.CastTo(XsType::kDouble));
      CmpResult r = CompareDoubles(cast.AsRawDouble(), o.NumericAsDouble());
      return a_untyped ? r
                       : (r == CmpResult::kLess
                              ? CmpResult::kGreater
                              : r == CmpResult::kGreater ? CmpResult::kLess : r);
    }
    if (o.type() == XsType::kBoolean) {
      XQP_ASSIGN_OR_RETURN(AtomicValue cast, u.CastTo(XsType::kBoolean));
      int x = cast.AsBool() ? 1 : 0;
      int y = o.AsBool() ? 1 : 0;
      CmpResult r = x < y ? CmpResult::kLess
                          : x > y ? CmpResult::kGreater : CmpResult::kEqual;
      return a_untyped ? r
                       : (r == CmpResult::kLess
                              ? CmpResult::kGreater
                              : r == CmpResult::kGreater ? CmpResult::kLess : r);
    }
    // Otherwise compare as strings (untyped vs untyped/string/anyURI).
  }
  return CompareAtomicValues(a, b);
}

}  // namespace

Result<bool> EvalGeneralComparison(CompOp op, const Sequence& lhs,
                                   const Sequence& rhs) {
  for (const Item& li : lhs) {
    for (const Item& ri : rhs) {
      XQP_ASSIGN_OR_RETURN(CmpResult r,
                           GeneralPairCompare(li.AsAtomic(), ri.AsAtomic()));
      XQP_ASSIGN_OR_RETURN(bool sat, ApplyOpNanAware(op, r));
      if (sat) return true;
    }
  }
  return false;
}

Result<Sequence> EvalNodeComparison(CompOp op, const Sequence& lhs,
                                    const Sequence& rhs) {
  if (lhs.empty() || rhs.empty()) return Sequence{};
  if (lhs.size() != 1 || rhs.size() != 1 || !lhs[0].IsNode() ||
      !rhs[0].IsNode()) {
    return Status::TypeError("node comparison requires single node operands");
  }
  const Node& a = lhs[0].AsNode();
  const Node& b = rhs[0].AsNode();
  bool out = false;
  switch (op) {
    case CompOp::kIs:
      out = a.SameNode(b);
      break;
    case CompOp::kIsNot:
      out = !a.SameNode(b);
      break;
    case CompOp::kBefore:
      out = Node::CompareDocOrder(a, b) < 0;
      break;
    case CompOp::kAfter:
      out = Node::CompareDocOrder(a, b) > 0;
      break;
    default:
      return Status::Internal("not a node comparison");
  }
  return Sequence{Item(AtomicValue::Boolean(out))};
}

Result<Sequence> EvalSetOperation(const Expr& e, const Sequence& lhs,
                                  const Sequence& rhs) {
  Sequence out;
  out.reserve(lhs.size() + (e.kind() == ExprKind::kUnion ? rhs.size() : 0));
  out.insert(out.end(), lhs.begin(), lhs.end());
  if (e.kind() == ExprKind::kUnion) {
    out.insert(out.end(), rhs.begin(), rhs.end());
    XQP_RETURN_NOT_OK(SortDocOrderDistinct(&out));
    return out;
  }
  const bool is_except = static_cast<const IntersectExceptExpr&>(e).is_except;
  XQP_RETURN_NOT_OK(SortDocOrderDistinct(&out));
  XQP_RETURN_NOT_OK(CheckNodesOnly(rhs));
  std::erase_if(out, [&](const Item& item) {
    const bool in_rhs =
        std::any_of(rhs.begin(), rhs.end(), [&](const Item& r) {
          return item.AsNode().SameNode(r.AsNode());
        });
    return in_rhs == is_except;
  });
  return out;
}

Result<CmpResult> CompareForOrdering(const AtomicValue& a,
                                     const AtomicValue& b) {
  bool a_untyped = a.type() == XsType::kUntypedAtomic;
  bool b_untyped = b.type() == XsType::kUntypedAtomic;
  // Cast untyped to double when the other side is numeric.
  if (a_untyped && b.IsNumeric()) {
    auto cast = a.CastTo(XsType::kDouble);
    if (!cast.ok()) return cast.status();
    double x = cast.value().AsRawDouble();
    if (std::isnan(x)) return CmpResult::kLess;  // NaN sorts first.
    return CompareDoubles(x, b.NumericAsDouble());
  }
  if (b_untyped && a.IsNumeric()) {
    auto cast = b.CastTo(XsType::kDouble);
    if (!cast.ok()) return cast.status();
    double y = cast.value().AsRawDouble();
    if (std::isnan(y)) return CmpResult::kGreater;
    return CompareDoubles(a.NumericAsDouble(), y);
  }
  if (a.IsNumeric() && b.IsNumeric()) {
    double x = a.NumericAsDouble();
    double y = b.NumericAsDouble();
    bool xn = std::isnan(x);
    bool yn = std::isnan(y);
    if (xn && yn) return CmpResult::kEqual;
    if (xn) return CmpResult::kLess;
    if (yn) return CmpResult::kGreater;
    return CompareDoubles(x, y);
  }
  return CompareAtomicValues(a, b);
}

}  // namespace xqp
