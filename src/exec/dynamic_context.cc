#include "exec/dynamic_context.h"

#include "exec/type_match.h"

namespace xqp {

Result<const Item*> FocusItem(const FocusInfo& focus, bool axis_step) {
  if (!focus.has_focus) {
    return Status::DynamicError("context item is not defined");
  }
  if (axis_step) XQP_RETURN_NOT_OK(CheckAxisOrigin(focus.item));
  return &focus.item;
}

Status CheckAxisOrigin(const Item& origin) {
  if (origin.IsNode()) return Status::OK();
  return Status::TypeError("axis step requires a node context item");
}

Result<CallFrame> BindUserCall(const UserFunction& fn,
                               std::vector<Sequence>& args,
                               const DynamicContext& ctx) {
  if (fn.body == nullptr) {
    return Status::DynamicError("external function has no implementation: " +
                                fn.name.Lexical());
  }
  if (ctx.call_depth >= DynamicContext::kMaxCallDepth) {
    return Status::DynamicError("maximum recursion depth exceeded in " +
                                fn.name.Lexical());
  }
  CallFrame frame;
  frame.slots.resize(size_t(fn.num_slots));
  for (size_t i = 0; i < args.size(); ++i) {
    if (!MatchesSequenceType(args[i], fn.param_types[i])) {
      return Status::TypeError(
          "argument " + std::to_string(i + 1) + " of " + fn.name.Lexical() +
          " does not match " + fn.param_types[i].ToString());
    }
    frame.slots[size_t(fn.param_slots[i])] =
        LazySeq::FromVector(std::move(args[i]));
  }
  return frame;
}

}  // namespace xqp
