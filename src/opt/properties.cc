#include "opt/properties.h"

#include "exec/functions.h"

namespace xqp {

namespace {

/// Pure, deterministic builtins (safe to constant-fold / factor).
bool IsPureBuiltin(Builtin id) {
  switch (id) {
    case Builtin::kDoc:
    case Builtin::kCollection:
    case Builtin::kPosition:
    case Builtin::kLast:
    case Builtin::kError:
    case Builtin::kTrace:
      return false;
    default:
      return true;
  }
}

bool BuiltinUsesFocus(Builtin id) {
  switch (id) {
    case Builtin::kPosition:
    case Builtin::kLast:
      return true;
    default:
      return false;
  }
}

void Analyze(Expr* e, const ParsedModule* module);

void AnalyzeChildren(Expr* e, const ParsedModule* module) {
  for (size_t i = 0; i < e->NumChildren(); ++i) {
    Analyze(e->child(i), module);
  }
}

bool AnyChild(const Expr* e, bool ExprProps::*flag) {
  for (size_t i = 0; i < e->NumChildren(); ++i) {
    if (e->child(i)->props.*flag) return true;
  }
  return false;
}

bool AllChildren(const Expr* e, bool ExprProps::*flag) {
  for (size_t i = 0; i < e->NumChildren(); ++i) {
    if (!(e->child(i)->props.*flag)) return false;
  }
  return true;
}

/// Computes e->props from its children's (already computed) props.
void AnalyzeOne(Expr* e, const ParsedModule* module) {
  ExprProps& p = e->props;
  p = ExprProps{};
  p.analyzed = true;
  // Conservative defaults; refined per kind below.
  p.may_raise_error = true;
  p.creates_nodes = AnyChild(e, &ExprProps::creates_nodes);
  p.uses_context = AnyChild(e, &ExprProps::uses_context);
  p.uses_position = AnyChild(e, &ExprProps::uses_position);
  p.uses_last = AnyChild(e, &ExprProps::uses_last);

  switch (e->kind()) {
    case ExprKind::kLiteral:
      p.atomics_only = true;
      p.singleton = true;
      p.constant = true;
      p.may_raise_error = false;
      p.ordered = p.distinct = p.no_two_nested = true;  // Vacuous.
      break;

    case ExprKind::kVarRef: {
      p.may_raise_error = false;  // Binding errors surface at the binder.
      // Declared types of globals refine the analysis: a document-node()
      // variable (the paper's $document) is a singleton node.
      const auto* var = static_cast<const VarRefExpr*>(e);
      if (var->is_global && module != nullptr) {
        for (const GlobalVariable& g : module->globals) {
          if (g.slot != var->slot || !g.has_type) continue;
          const SequenceType& t = g.type;
          if (t.occurrence == Occurrence::kOne && !t.empty_sequence) {
            p.singleton = true;
            p.ordered = p.distinct = p.no_two_nested = true;
          }
          switch (t.item.kind) {
            case ItemTypeTest::Kind::kDocument:
            case ItemTypeTest::Kind::kElement:
            case ItemTypeTest::Kind::kAttribute:
            case ItemTypeTest::Kind::kNode:
            case ItemTypeTest::Kind::kText:
            case ItemTypeTest::Kind::kComment:
            case ItemTypeTest::Kind::kPi:
              p.nodes_only = true;
              break;
            case ItemTypeTest::Kind::kAtomic:
              p.atomics_only = true;
              break;
            case ItemTypeTest::Kind::kItem:
              break;
          }
          break;
        }
      }
      break;
    }

    case ExprKind::kContextItem:
      p.singleton = true;
      p.uses_context = true;
      p.ordered = p.distinct = p.no_two_nested = true;  // Singleton.
      break;

    case ExprKind::kRoot:
      p.singleton = true;
      p.nodes_only = true;
      p.uses_context = true;
      p.ordered = p.distinct = p.no_two_nested = true;
      break;

    case ExprKind::kStep: {
      const auto* step = static_cast<const StepExpr*>(e);
      p.nodes_only = true;
      p.uses_context = true;
      p.distinct = true;
      p.ordered = !IsReverseAxis(step->axis);
      switch (step->axis) {
        case Axis::kChild:
        case Axis::kAttribute:
        case Axis::kSelf:
        case Axis::kParent:
        case Axis::kFollowingSibling:
        case Axis::kPrecedingSibling:
          p.no_two_nested = true;  // Siblings / singletons never nest.
          break;
        default:
          p.no_two_nested = false;
          break;
      }
      break;
    }

    case ExprKind::kPath: {
      const Expr* lhs = e->child(0);
      const Expr* rhs = e->child(1);
      p.nodes_only = rhs->props.nodes_only;
      p.atomics_only = rhs->props.atomics_only;
      p.uses_context = lhs->props.uses_context;
      const auto* path = static_cast<const PathExpr*>(e);
      bool s_ordered = false;
      bool s_distinct = false;
      bool s_ntn = false;
      if (const StepExpr* step = UnderlyingStep(rhs)) {
        PathStructuralFlags(lhs->props, step->axis, &s_ordered, &s_distinct,
                            &s_ntn);
      }
      // The engine enforces order/distinctness whenever the flags are set;
      // otherwise the structural guarantees carry through.
      p.ordered = path->needs_sort || s_ordered;
      p.distinct = path->needs_sort || path->needs_dedup || s_distinct;
      p.no_two_nested = s_ntn;
      break;
    }

    case ExprKind::kFilter: {
      // Filtering preserves the base's order properties.
      const ExprProps& base = e->child(0)->props;
      p.ordered = base.ordered;
      p.distinct = base.distinct;
      p.no_two_nested = base.no_two_nested;
      p.nodes_only = base.nodes_only;
      p.atomics_only = base.atomics_only;
      p.uses_context = base.uses_context;
      break;
    }

    case ExprKind::kSequence:
      p.nodes_only = AllChildren(e, &ExprProps::nodes_only);
      p.atomics_only = AllChildren(e, &ExprProps::atomics_only);
      p.constant = AllChildren(e, &ExprProps::constant);
      p.may_raise_error = !AllChildren(e, &ExprProps::constant);
      if (e->NumChildren() == 1) {
        p.ordered = e->child(0)->props.ordered;
        p.distinct = e->child(0)->props.distinct;
        p.no_two_nested = e->child(0)->props.no_two_nested;
        p.singleton = e->child(0)->props.singleton;
      }
      break;

    case ExprKind::kRange:
      p.atomics_only = true;
      // Ranges stay runtime: folding could expand a huge literal range.
      p.constant = false;
      break;

    case ExprKind::kArithmetic:
    case ExprKind::kUnary:
      p.atomics_only = true;
      p.constant = AllChildren(e, &ExprProps::constant);
      break;

    case ExprKind::kComparison: {
      const auto* cmp = static_cast<const ComparisonExpr*>(e);
      p.atomics_only = true;
      p.singleton = IsGeneralComp(cmp->op);
      p.constant = AllChildren(e, &ExprProps::constant);
      break;
    }

    case ExprKind::kLogical:
      p.atomics_only = true;
      p.singleton = true;
      p.constant = AllChildren(e, &ExprProps::constant);
      break;

    case ExprKind::kIf:
      p.nodes_only = e->child(1)->props.nodes_only && e->child(2)->props.nodes_only;
      p.atomics_only =
          e->child(1)->props.atomics_only && e->child(2)->props.atomics_only;
      p.constant = AllChildren(e, &ExprProps::constant);
      break;

    case ExprKind::kFlwor: {
      const auto* flwor = static_cast<const FlworExpr*>(e);
      p.nodes_only = flwor->return_expr()->props.nodes_only;
      p.atomics_only = flwor->return_expr()->props.atomics_only;
      break;
    }

    case ExprKind::kQuantified:
      p.atomics_only = true;
      p.singleton = true;
      break;

    case ExprKind::kTypeswitch:
      break;

    case ExprKind::kInstanceOf:
    case ExprKind::kCastableAs:
      p.atomics_only = true;
      p.singleton = true;
      p.constant = e->child(0)->props.constant;
      break;

    case ExprKind::kCastAs:
      p.atomics_only = true;
      p.constant = e->child(0)->props.constant;
      break;

    case ExprKind::kTreatAs: {
      const ExprProps& base = e->child(0)->props;
      p = base;
      p.may_raise_error = true;
      break;
    }

    case ExprKind::kUnion:
    case ExprKind::kIntersectExcept:
      p.nodes_only = true;
      p.ordered = true;
      p.distinct = true;
      break;

    case ExprKind::kFunctionCall: {
      const auto* call = static_cast<const FunctionCallExpr*>(e);
      if (call->builtin >= 0) {
        Builtin id = static_cast<Builtin>(call->builtin);
        if (BuiltinUsesFocus(id)) {
          p.uses_context = true;
          p.uses_position = p.uses_position || id == Builtin::kPosition;
          p.uses_last = p.uses_last || id == Builtin::kLast;
        }
        if (call->NumChildren() == 0 &&
            (id == Builtin::kString || id == Builtin::kStringLength ||
             id == Builtin::kNumber || id == Builtin::kNormalizeSpace ||
             id == Builtin::kName || id == Builtin::kLocalName ||
             id == Builtin::kNamespaceUri || id == Builtin::kRoot)) {
          p.uses_context = true;
        }
        p.constant = IsPureBuiltin(id) &&
                     AllChildren(e, &ExprProps::constant) &&
                     !BuiltinUsesFocus(id);
        switch (id) {
          case Builtin::kCount:
          case Builtin::kEmpty:
          case Builtin::kExists:
          case Builtin::kNot:
          case Builtin::kBoolean:
          case Builtin::kTrue:
          case Builtin::kFalse:
          case Builtin::kString:
          case Builtin::kConcat:
          case Builtin::kStringLength:
            p.atomics_only = true;
            p.singleton = true;
            break;
          case Builtin::kDistinctNodes:
            p.nodes_only = true;
            p.ordered = true;
            p.distinct = true;
            break;
          case Builtin::kDoc:
            p.nodes_only = true;
            p.ordered = p.distinct = p.no_two_nested = true;
            break;
          default:
            break;
        }
      } else if (call->user_index >= 0 && module != nullptr) {
        const UserFunction& fn = module->functions[call->user_index];
        // A user function may construct nodes; without a cached summary be
        // conservative.
        p.creates_nodes = true;
        (void)fn;
      }
      break;
    }

    case ExprKind::kElementCtor:
    case ExprKind::kAttributeCtor:
    case ExprKind::kCommentCtor:
    case ExprKind::kPiCtor:
    case ExprKind::kDocumentCtor:
      p.creates_nodes = true;
      p.nodes_only = true;
      p.singleton = true;
      p.ordered = p.distinct = p.no_two_nested = true;
      break;

    case ExprKind::kTextCtor:
      p.creates_nodes = true;
      p.nodes_only = true;
      break;

    case ExprKind::kTryCatch:
      p.nodes_only =
          e->child(0)->props.nodes_only && e->child(1)->props.nodes_only;
      p.atomics_only =
          e->child(0)->props.atomics_only && e->child(1)->props.atomics_only;
      // Never constant-fold across a catch: folding would bake in the
      // handler decision.
      p.constant = false;
      break;
  }
}

void Analyze(Expr* e, const ParsedModule* module) {
  AnalyzeChildren(e, module);
  AnalyzeOne(e, module);
}

}  // namespace

void AnalyzeExpr(Expr* e, const ParsedModule* module) { Analyze(e, module); }

void AnalyzeNode(Expr* e, const ParsedModule* module) { AnalyzeOne(e, module); }

const StepExpr* UnderlyingStep(const Expr* e) {
  if (e->kind() == ExprKind::kStep) {
    return static_cast<const StepExpr*>(e);
  }
  if (e->kind() == ExprKind::kFilter) {
    return UnderlyingStep(e->child(0));
  }
  return nullptr;
}

void PathStructuralFlags(const ExprProps& lhs, Axis axis, bool* ordered,
                         bool* distinct, bool* no_two_nested) {
  *ordered = false;
  *distinct = false;
  *no_two_nested = false;
  switch (axis) {
    case Axis::kChild:
    case Axis::kAttribute:
      // Children of distinct parents are distinct (each child has exactly
      // one parent); order holds when parents are ordered and disjoint.
      *distinct = lhs.distinct;
      *ordered = lhs.ordered && lhs.distinct && lhs.no_two_nested;
      *no_two_nested = lhs.no_two_nested;
      break;
    case Axis::kSelf:
      *ordered = lhs.ordered;
      *distinct = lhs.distinct;
      *no_two_nested = lhs.no_two_nested;
      break;
    case Axis::kDescendant:
    case Axis::kDescendantOrSelf: {
      bool clean = lhs.ordered && lhs.distinct && lhs.no_two_nested;
      *ordered = clean;
      *distinct = clean;
      *no_two_nested = false;  // Descendant sets nest by construction.
      break;
    }
    case Axis::kParent:
      if (lhs.singleton) {
        *ordered = *distinct = *no_two_nested = true;
      }
      break;
    default:
      // Reverse and following/preceding axes: no guarantees.
      break;
  }
}

int CountVarUses(const Expr* e, int slot, bool* in_loop) {
  int count = 0;
  if (e->kind() == ExprKind::kVarRef) {
    const auto* var = static_cast<const VarRefExpr*>(e);
    if (!var->is_global && var->slot == slot) return 1;
    return 0;
  }
  for (size_t i = 0; i < e->NumChildren(); ++i) {
    const Expr* child = e->child(i);
    int uses = CountVarUses(child, slot, in_loop);
    count += uses;
    if (uses > 0 && in_loop != nullptr) {
      bool loopy = false;
      switch (e->kind()) {
        case ExprKind::kPath:
          loopy = i == 1;  // Path rhs runs once per lhs item.
          break;
        case ExprKind::kFilter:
          loopy = i >= 1;  // Predicates run once per base item.
          break;
        case ExprKind::kFlwor: {
          const auto* flwor = static_cast<const FlworExpr*>(e);
          // Everything after the first for clause runs per tuple.
          size_t first_for = flwor->clauses.size();
          for (size_t c = 0; c < flwor->clauses.size(); ++c) {
            if (flwor->clauses[c].type == FlworExpr::Clause::Type::kFor) {
              first_for = c;
              break;
            }
          }
          loopy = i > first_for;
          break;
        }
        case ExprKind::kQuantified:
          loopy = i > 0;
          break;
        case ExprKind::kFunctionCall:
          // Argument evaluation is once, but the callee may loop; be safe
          // for user functions.
          loopy = static_cast<const FunctionCallExpr*>(e)->user_index >= 0;
          break;
        default:
          break;
      }
      if (loopy) *in_loop = true;
    }
  }
  return count;
}

int SubstituteVar(Expr* e, int slot, const Expr& replacement) {
  int count = 0;
  for (size_t i = 0; i < e->NumChildren(); ++i) {
    Expr* child = e->child(i);
    if (child->kind() == ExprKind::kVarRef) {
      const auto* var = static_cast<const VarRefExpr*>(child);
      if (!var->is_global && var->slot == slot) {
        e->SetChild(i, replacement.Clone());
        ++count;
        continue;
      }
    }
    count += SubstituteVar(child, slot, replacement);
  }
  return count;
}

void CollectBoundSlots(const Expr* e, std::vector<int>* slots) {
  switch (e->kind()) {
    case ExprKind::kFlwor: {
      const auto* flwor = static_cast<const FlworExpr*>(e);
      for (const auto& c : flwor->clauses) {
        if (c.var_slot >= 0) slots->push_back(c.var_slot);
        if (c.pos_slot >= 0) slots->push_back(c.pos_slot);
      }
      break;
    }
    case ExprKind::kQuantified: {
      const auto* q = static_cast<const QuantifiedExpr*>(e);
      for (const auto& b : q->bindings) {
        if (b.var_slot >= 0) slots->push_back(b.var_slot);
      }
      break;
    }
    case ExprKind::kTypeswitch: {
      const auto* ts = static_cast<const TypeswitchExpr*>(e);
      for (const auto& c : ts->cases) {
        if (c.var_slot >= 0) slots->push_back(c.var_slot);
      }
      if (ts->default_var_slot >= 0) slots->push_back(ts->default_var_slot);
      break;
    }
    default:
      break;
  }
  for (size_t i = 0; i < e->NumChildren(); ++i) {
    CollectBoundSlots(e->child(i), slots);
  }
}

void CollectUsedSlots(const Expr* e, std::vector<int>* slots) {
  if (e->kind() == ExprKind::kVarRef) {
    const auto* var = static_cast<const VarRefExpr*>(e);
    if (!var->is_global) slots->push_back(var->slot);
  }
  for (size_t i = 0; i < e->NumChildren(); ++i) {
    CollectUsedSlots(e->child(i), slots);
  }
}

}  // namespace xqp
