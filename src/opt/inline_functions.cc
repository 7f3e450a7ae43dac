#include "opt/inline_functions.h"

#include <unordered_map>
#include <utility>

#include "opt/properties.h"
#include "query/expr.h"

namespace xqp {
namespace opt_internal {

namespace {

size_t CountNodes(const Expr* e) {
  size_t n = 1;
  for (size_t i = 0; i < e->NumChildren(); ++i) n += CountNodes(e->child(i));
  return n;
}

/// Function inlining: non-recursive user functions below the size limit
/// expand at the call site as let-bound parameters + a slot-remapped body
/// clone (the paper's caveats about namespaces and implicit operations are
/// satisfied: names were resolved at parse time and argument types are
/// checked by the generated lets... the engine checks them dynamically).
class Inliner {
 public:
  Inliner(const ParsedModule& module, int size_limit, int* next_slot)
      : module_(module), size_limit_(size_limit), next_slot_(next_slot) {}

  int inlined() const { return inlined_; }

  Status Run(ExprPtr& e) {
    for (size_t i = 0; i < e->NumChildren(); ++i) {
      XQP_RETURN_NOT_OK(Run(e->child_slot(i)));
    }
    if (e->kind() != ExprKind::kFunctionCall) return Status::OK();
    auto* call = static_cast<FunctionCallExpr*>(e.get());
    if (call->user_index < 0) return Status::OK();
    const UserFunction& fn = module_.functions[call->user_index];
    if (fn.body == nullptr || fn.recursive) return Status::OK();
    if (CountNodes(fn.body.get()) > static_cast<size_t>(size_limit_)) {
      return Status::OK();
    }

    // A function body has no focus; inlined, it would read its caller's.
    // The clone is analyzed here because a callee declared after its
    // caller has not been analyzed yet.
    ExprPtr body = fn.body->Clone();
    AnalyzeExpr(body.get(), &module_);
    const ExprProps& props = body->props;
    if (props.uses_context || props.uses_position || props.uses_last) {
      return Status::OK();
    }

    // Remap the body into the caller's frame.
    std::unordered_map<int, int> remap;
    for (size_t i = 0; i < fn.param_slots.size(); ++i) {
      remap[fn.param_slots[i]] = (*next_slot_)++;
    }
    CollectAndRemapBindings(body.get(), &remap);
    RemapVarRefs(body.get(), remap);

    if (call->NumChildren() == 0) {
      e = std::move(body);
    } else {
      auto flwor = std::make_unique<FlworExpr>();
      for (size_t i = 0; i < fn.params.size(); ++i) {
        FlworExpr::Clause clause;
        clause.type = FlworExpr::Clause::Type::kLet;
        clause.var = fn.params[i];
        clause.var_slot = remap[fn.param_slots[i]];
        flwor->clauses.push_back(clause);
        ExprPtr arg = call->TakeChild(i);
        // Declared parameter types keep their dynamic check as treat-as.
        const SequenceType& t = fn.param_types[i];
        bool is_any = !t.empty_sequence &&
                      t.item.kind == ItemTypeTest::Kind::kItem &&
                      t.occurrence == Occurrence::kStar;
        if (!is_any) {
          arg = std::make_unique<TreatExpr>(std::move(arg), t);
        }
        flwor->AddChild(std::move(arg));
      }
      flwor->AddChild(std::move(body));
      e = std::move(flwor);
    }
    ++inlined_;
    return Status::OK();
  }

 private:
  void CollectAndRemapBindings(Expr* e, std::unordered_map<int, int>* remap) {
    switch (e->kind()) {
      case ExprKind::kFlwor: {
        auto* flwor = static_cast<FlworExpr*>(e);
        for (auto& c : flwor->clauses) {
          if (c.var_slot >= 0) {
            int fresh = (*next_slot_)++;
            (*remap)[c.var_slot] = fresh;
            c.var_slot = fresh;
          }
          if (c.pos_slot >= 0) {
            int fresh = (*next_slot_)++;
            (*remap)[c.pos_slot] = fresh;
            c.pos_slot = fresh;
          }
        }
        break;
      }
      case ExprKind::kQuantified: {
        auto* q = static_cast<QuantifiedExpr*>(e);
        for (auto& b : q->bindings) {
          if (b.var_slot >= 0) {
            int fresh = (*next_slot_)++;
            (*remap)[b.var_slot] = fresh;
            b.var_slot = fresh;
          }
        }
        break;
      }
      case ExprKind::kTypeswitch: {
        auto* ts = static_cast<TypeswitchExpr*>(e);
        for (auto& c : ts->cases) {
          if (c.var_slot >= 0) {
            int fresh = (*next_slot_)++;
            (*remap)[c.var_slot] = fresh;
            c.var_slot = fresh;
          }
        }
        if (ts->default_var_slot >= 0) {
          int fresh = (*next_slot_)++;
          (*remap)[ts->default_var_slot] = fresh;
          ts->default_var_slot = fresh;
        }
        break;
      }
      default:
        break;
    }
    for (size_t i = 0; i < e->NumChildren(); ++i) {
      CollectAndRemapBindings(e->child(i), remap);
    }
  }

  void RemapVarRefs(Expr* e, const std::unordered_map<int, int>& remap) {
    if (e->kind() == ExprKind::kVarRef) {
      auto* var = static_cast<VarRefExpr*>(e);
      if (!var->is_global) {
        auto it = remap.find(var->slot);
        if (it != remap.end()) var->slot = it->second;
      }
    }
    for (size_t i = 0; i < e->NumChildren(); ++i) {
      RemapVarRefs(e->child(i), remap);
    }
  }

  const ParsedModule& module_;
  int size_limit_;
  int* next_slot_;
  int inlined_ = 0;
};

}  // namespace

Result<int> InlineFunctionCalls(ExprPtr& e, const ParsedModule& module,
                                int inline_size_limit, int* next_slot) {
  Inliner inliner(module, inline_size_limit, next_slot);
  XQP_RETURN_NOT_OK(inliner.Run(e));
  return inliner.inlined();
}

}  // namespace opt_internal

Result<int> InlineSmallFunctions(ParsedModule* module, int inline_size_limit) {
  if (module->functions.empty() || module->body == nullptr) return 0;
  int total = 0;
  // A non-recursive call graph is a DAG, so a chain exposes at most one
  // new layer of calls per pass and |functions| passes flatten any chain;
  // the bound makes that explicit rather than trusting the recursion
  // analysis with an unbounded loop.
  int max_rounds = static_cast<int>(module->functions.size()) + 1;
  for (int round = 0; round < max_rounds; ++round) {
    XQP_ASSIGN_OR_RETURN(
        int inlined,
        opt_internal::InlineFunctionCalls(module->body, *module,
                                          inline_size_limit,
                                          &module->num_slots));
    if (inlined == 0) break;
    total += inlined;
  }
  return total;
}

}  // namespace xqp
