#ifndef XQP_OPT_CONST_FOLD_H_
#define XQP_OPT_CONST_FOLD_H_

#include <optional>

#include "exec/item.h"
#include "query/expr.h"

namespace xqp {

/// Structural compile-time evaluation of one pure-literal node: arithmetic,
/// unary +/-, and value/general comparisons whose operands are all
/// literals. Unlike the property-driven FoldConstant rule this needs no
/// analysis pass and no dynamic context, so the bytecode compiler uses it
/// at lowering even for unoptimized plans. Returns nullopt when `e` has a
/// different shape or when evaluation errors (a dead branch must keep its
/// runtime error).
std::optional<Sequence> TryFoldLiteralNode(const Expr& e);

}  // namespace xqp

#endif  // XQP_OPT_CONST_FOLD_H_
