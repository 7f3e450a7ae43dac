#include "vm/vm.h"

#include <cmath>
#include <cstdint>
#include <iterator>
#include <memory>
#include <utility>
#include <vector>

#include "base/limits.h"
#include "base/metrics.h"
#include "exec/arithmetic.h"
#include "exec/axes.h"
#include "exec/builtins.h"
#include "exec/interpreter.h"
#include "exec/item.h"
#include "exec/operators.h"
#include "exec/order_by.h"
#include "opt/access_path.h"

// Dispatch strategy: jump-threaded computed goto on GCC/Clang (each handler
// ends with its own indirect branch, so the CPU predicts per-opcode-pair),
// plain switch-in-a-loop elsewhere. Handler bodies are written once; the
// macros below select the surrounding control flow.
#if defined(__GNUC__) || defined(__clang__)
#define XQP_VM_COMPUTED_GOTO 1
#else
#define XQP_VM_COMPUTED_GOTO 0
#endif

namespace xqp {
namespace vm {
namespace {

/// Relation test shared by the integer fast paths of value and general
/// comparisons (for two singleton xs:integers the two families agree).
bool IntCmp(CompOp op, int64_t a, int64_t b) {
  switch (op) {
    case CompOp::kValueEq: case CompOp::kGenEq: return a == b;
    case CompOp::kValueNe: case CompOp::kGenNe: return a != b;
    case CompOp::kValueLt: case CompOp::kGenLt: return a < b;
    case CompOp::kValueLe: case CompOp::kGenLe: return a <= b;
    case CompOp::kValueGt: case CompOp::kGenGt: return a > b;
    case CompOp::kValueGe: case CompOp::kGenGe: return a >= b;
    default: return false;  // Node comparisons never reach this.
  }
}

bool IsSingletonBool(const Sequence& s) {
  return s.size() == 1 && s[0].IsAtomic() &&
         s[0].AsAtomic().type() == XsType::kBoolean;
}

class Vm {
 public:
  Vm(const Program& p, DynamicContext* ctx)
      : p_(p), ctx_(ctx), gov_(ctx->governor) {}

  Result<Sequence> Run();

  uint64_t retired() const { return retired_; }

 private:
  /// Replaces the top `n` stack cells above `sp` with operator plan
  /// `plan` applied to them; returns the new stack depth.
  Result<size_t> Apply(int32_t plan, Sequence* stack, size_t sp, size_t n) {
    std::span<const Sequence> operands(stack + (sp - n), n);
    XQP_RETURN_NOT_OK(ApplyOperator(*p_.operators[size_t(plan)], operands,
                                    ctx_, &applied_));
    sp -= n;
    stack[sp].swap(applied_);
    applied_.clear();
    return sp + 1;
  }

  struct IterState {
    Sequence domain;
    size_t pos = 0;
    int resume = -1;  // kValueJoin matches: the pc after each binding.
    FocusInfo saved;  // kFocusNext: the enclosing focus.
  };

  /// One open order-by buffer: the tuples gathered so far and the current
  /// key cells (one per order spec, positionally assigned by kSortKey).
  /// Nested order-by FLWORs stack these like the accumulators.
  struct SortState {
    std::vector<flwor::OrderedTuple> tuples;
    std::vector<flwor::OrderKey> keys;
  };

  const Program& p_;
  DynamicContext* ctx_;
  ResourceGovernor* gov_;
  std::vector<Sequence> stack_;
  std::vector<Sequence> regs_;
  std::vector<IterState> iters_;
  std::vector<Sequence> accums_;
  size_t asize_ = 0;
  std::vector<SortState> sorts_;
  size_t ssize_ = 0;
  std::vector<Sequence> args_;
  /// ApplyOperator's result, swapped onto the stack: operands and result
  /// never share a cell, and cells keep their capacity.
  Sequence applied_;
  uint64_t retired_ = 0;
};

#if XQP_VM_COMPUTED_GOTO
#define VM_CASE(name) lbl_##name
#define VM_DISPATCH() goto* kDispatch[static_cast<size_t>(ip->op)]
#define VM_BEGIN() VM_DISPATCH();
#define VM_END() return Status::Internal("vm: invalid opcode");
#else
#define VM_CASE(name) case Op::name
#define VM_DISPATCH() goto dispatch
#define VM_BEGIN() \
  dispatch:        \
  switch (ip->op) {
#define VM_END() \
  }              \
  return Status::Internal("vm: invalid opcode");
#endif

#define VM_NEXT()    \
  do {               \
    ++retired;       \
    ++ip;            \
    VM_DISPATCH();   \
  } while (0)

#define VM_GOTO(target)    \
  do {                     \
    ++retired;             \
    ip = code + (target);  \
    VM_DISPATCH();         \
  } while (0)

Result<Sequence> Vm::Run() {
  if (p_.code.empty()) {
    return Status::Internal("vm: program has no code (declined plan?)");
  }
  stack_.resize(size_t(p_.max_stack));
  regs_.resize(size_t(p_.num_slots));
  iters_.resize(size_t(p_.num_iters));

  const Insn* code = p_.code.data();
  const Insn* ip = code;
  Sequence* stack = stack_.data();
  Sequence* regs = regs_.data();
  IterState* iters = iters_.data();
  size_t sp = 0;
  uint64_t retired = 0;

#if XQP_VM_COMPUTED_GOTO
  // Must match the Op enum order exactly.
  static const void* kDispatch[] = {
      &&lbl_kPushConst,   &&lbl_kPushEmpty,   &&lbl_kPushContextItem,
      &&lbl_kLoadLocal,   &&lbl_kLoadGlobal,  &&lbl_kStoreLocal,
      &&lbl_kConcat,      &&lbl_kApply,       &&lbl_kArith,
      &&lbl_kValueCmp,    &&lbl_kGeneralCmp,  &&lbl_kEbv,
      &&lbl_kJump,
      &&lbl_kJumpIfFalse, &&lbl_kJumpIfTrue,  &&lbl_kIterNew,
      &&lbl_kIterNext,    &&lbl_kBindPos,     &&lbl_kFocusNext,
      &&lbl_kFocusKeep,   &&lbl_kAccumNew,    &&lbl_kAccumAdd,
      &&lbl_kAccumEnd,    &&lbl_kCallBuiltin, &&lbl_kNavStep,
      &&lbl_kPathEnd,     &&lbl_kAccessPath,  &&lbl_kValueJoin,
      &&lbl_kPushRoot,    &&lbl_kSortOpen,    &&lbl_kSortKey,
      &&lbl_kSortAdd,     &&lbl_kSortTuples,  &&lbl_kPop,
      &&lbl_kHalt,
  };
#endif

  VM_BEGIN()

  VM_CASE(kPushConst) : {
    stack[sp++] = p_.const_pool[size_t(ip->a)];
    VM_NEXT();
  }

  VM_CASE(kPushEmpty) : {
    stack[sp++].clear();
    VM_NEXT();
  }

  VM_CASE(kPushContextItem) : {
    {  // Scoped, as in kApply.
      auto item = FocusItem(ctx_->focus);
      if (!item.ok()) return item.status();
      Sequence& s = stack[sp++];
      s.clear();
      s.push_back(*item.value());
    }
    VM_NEXT();
  }

  VM_CASE(kLoadLocal) : {
    stack[sp++] = regs[size_t(ip->a)];
    VM_NEXT();
  }

  VM_CASE(kLoadGlobal) : {
    const LazySeqPtr& g = ctx_->globals[size_t(ip->a)];
    if (g == nullptr) {
      return Status::DynamicError("unbound variable");  // Unreachable.
    }
    XQP_ASSIGN_OR_RETURN(const Sequence* items, g->Materialize());
    stack[sp++] = *items;
    VM_NEXT();
  }

  VM_CASE(kStoreLocal) : {
    Sequence& reg = regs[size_t(ip->a)];
    reg = stack[--sp];  // Copy: both cells keep their capacity for reuse.
    if (ip->flag & 1) {
      ctx_->slots[size_t(ip->a)] = LazySeq::FromVector(reg);
    }
    VM_NEXT();
  }

  VM_CASE(kConcat) : {
    size_t n = size_t(ip->a);
    Sequence& dst = stack[sp - n];
    for (size_t i = 1; i < n; ++i) {
      Sequence& src = stack[sp - n + i];
      dst.insert(dst.end(), std::make_move_iterator(src.begin()),
                 std::make_move_iterator(src.end()));
    }
    sp -= n - 1;
    VM_NEXT();
  }

  VM_CASE(kApply) : {
    {  // Scoped: leaving a block by VM_NEXT's computed goto skips the
       // destructors of its locals, which would leak their buffers.
      auto r = Apply(ip->a, stack, sp, size_t(ip->b));
      if (!r.ok()) return r.status();
      sp = r.value();
    }
    VM_NEXT();
  }

  VM_CASE(kArith) : {
    Sequence& lhs = stack[sp - 2];
    Sequence& rhs = stack[sp - 1];
    ArithOp op = static_cast<ArithOp>(ip->flag);
    if (lhs.size() == 1 && rhs.size() == 1 && lhs[0].IsAtomic() &&
        rhs[0].IsAtomic()) {
      const AtomicValue& a = lhs[0].AsAtomic();
      const AtomicValue& b = rhs[0].AsAtomic();
      // Integer fast path (div excepted: int div yields a decimal).
      if (a.type() == XsType::kInteger && b.type() == XsType::kInteger &&
          op != ArithOp::kDiv) {
        int64_t r = 0;
        if (!CheckedIntArith(op, a.AsInt(), b.AsInt(), &r)) {
          return ArithmeticError(op, b.AsInt() == 0);
        }
        lhs[0] = Item(AtomicValue::Integer(r));
        --sp;
        VM_NEXT();
      }
      // Double fast path (idiv excepted: NaN/INF and range checks).
      if (a.type() == XsType::kDouble && b.type() == XsType::kDouble &&
          op != ArithOp::kIDiv) {
        double x = a.AsRawDouble();
        double y = b.AsRawDouble();
        double r = 0;
        switch (op) {
          case ArithOp::kAdd: r = x + y; break;
          case ArithOp::kSub: r = x - y; break;
          case ArithOp::kMul: r = x * y; break;
          case ArithOp::kDiv: r = x / y; break;
          case ArithOp::kMod: r = std::fmod(x, y); break;
          case ArithOp::kIDiv: break;  // Unreachable (guarded above).
        }
        lhs[0] = Item(AtomicValue::Double(r));
        --sp;
        VM_NEXT();
      }
    }
    {  // Scoped, as in kApply.
      auto r = Apply(ip->a, stack, sp, 2);
      if (!r.ok()) return r.status();
      sp = r.value();
    }
    VM_NEXT();
  }

  VM_CASE(kValueCmp) : {
    Sequence& lhs = stack[sp - 2];
    Sequence& rhs = stack[sp - 1];
    CompOp op = static_cast<CompOp>(ip->flag);
    if (lhs.size() == 1 && rhs.size() == 1 && lhs[0].IsAtomic() &&
        rhs[0].IsAtomic() &&
        lhs[0].AsAtomic().type() == XsType::kInteger &&
        rhs[0].AsAtomic().type() == XsType::kInteger) {
      bool b = IntCmp(op, lhs[0].AsAtomic().AsInt(),
                      rhs[0].AsAtomic().AsInt());
      lhs[0] = Item(AtomicValue::Boolean(b));
      --sp;
      VM_NEXT();
    }
    {  // Scoped, as in kApply.
      auto r = Apply(ip->a, stack, sp, 2);
      if (!r.ok()) return r.status();
      sp = r.value();
    }
    VM_NEXT();
  }

  VM_CASE(kGeneralCmp) : {
    Sequence& lhs = stack[sp - 2];
    Sequence& rhs = stack[sp - 1];
    if (lhs.size() == 1 && rhs.size() == 1 && lhs[0].IsAtomic() &&
        rhs[0].IsAtomic() &&
        lhs[0].AsAtomic().type() == XsType::kInteger &&
        rhs[0].AsAtomic().type() == XsType::kInteger) {
      bool b = IntCmp(static_cast<CompOp>(ip->flag),
                      lhs[0].AsAtomic().AsInt(), rhs[0].AsAtomic().AsInt());
      --sp;
      Sequence& dst = stack[sp - 1];
      dst.clear();
      dst.push_back(Item(AtomicValue::Boolean(b)));
      VM_NEXT();
    }
    {  // Scoped, as in kApply.
      auto r = Apply(ip->a, stack, sp, 2);
      if (!r.ok()) return r.status();
      sp = r.value();
    }
    VM_NEXT();
  }

  VM_CASE(kEbv) : {
    Sequence& s = stack[sp - 1];
    if (!IsSingletonBool(s)) {
      auto r = EffectiveBooleanValue(s);
      if (!r.ok()) return r.status();
      s.clear();
      s.push_back(Item(AtomicValue::Boolean(r.value())));
    }
    VM_NEXT();
  }

  VM_CASE(kJump) : { VM_GOTO(ip->a); }

  VM_CASE(kJumpIfFalse) : {
    Sequence& s = stack[--sp];
    bool b = false;
    if (IsSingletonBool(s)) {
      b = s[0].AsAtomic().AsBool();
    } else {
      auto r = EffectiveBooleanValue(s);
      if (!r.ok()) return r.status();
      b = r.value();
    }
    if (!b) VM_GOTO(ip->a);
    VM_NEXT();
  }

  VM_CASE(kJumpIfTrue) : {
    Sequence& s = stack[--sp];
    bool b = false;
    if (IsSingletonBool(s)) {
      b = s[0].AsAtomic().AsBool();
    } else {
      auto r = EffectiveBooleanValue(s);
      if (!r.ok()) return r.status();
      b = r.value();
    }
    if (b) VM_GOTO(ip->a);
    VM_NEXT();
  }

  VM_CASE(kIterNew) : {
    IterState& it = iters[size_t(ip->a)];
    it.domain = std::move(stack[--sp]);
    it.pos = 0;
    it.resume = -1;
    VM_NEXT();
  }

  VM_CASE(kIterNext) : {
    // Every loop back-edge lands here: the cooperative cancellation point.
    if (gov_ != nullptr) XQP_RETURN_NOT_OK(gov_->Poll());
    IterState& it = iters[size_t(ip->a)];
    if (it.pos >= it.domain.size()) VM_GOTO(ip->b);
    const Item& item = it.domain[it.pos++];
    if (ip->c >= 0) {
      Sequence& reg = regs[size_t(ip->c)];
      reg.clear();
      reg.push_back(item);
      if (ip->flag & 1) {
        ctx_->slots[size_t(ip->c)] = LazySeq::FromItem(item);
      }
    }
    if (it.resume >= 0) VM_GOTO(it.resume);
    VM_NEXT();
  }

  VM_CASE(kBindPos) : {
    IterState& it = iters[size_t(ip->a)];
    Item pos_item(AtomicValue::Integer(int64_t(it.pos)));  // 1-based.
    Sequence& reg = regs[size_t(ip->b)];
    reg.clear();
    reg.push_back(pos_item);
    if (ip->flag & 1) {
      ctx_->slots[size_t(ip->b)] = LazySeq::FromItem(std::move(pos_item));
    }
    VM_NEXT();
  }

  VM_CASE(kFocusNext) : {
    if (gov_ != nullptr) XQP_RETURN_NOT_OK(gov_->Poll());
    IterState& it = iters[size_t(ip->a)];
    FocusInfo& focus = ctx_->focus;
    if (it.pos == 0) it.saved = focus;
    if (it.pos >= it.domain.size() || it.pos == size_t(ip->c)) {
      focus = std::move(it.saved);
      VM_GOTO(ip->b);
    }
    focus.has_focus = true;
    focus.item = it.domain[it.pos++];
    focus.position = int64_t(it.pos);
    focus.size = int64_t(it.domain.size());
    VM_NEXT();
  }

  VM_CASE(kFocusKeep) : {
    bool keep = false;
    {
      // Scoped, as in kArith.
      auto r = PredicateKeeps(stack[--sp], ctx_->focus.position);
      if (!r.ok()) return r.status();
      keep = r.value();
    }
    if (keep) accums_[asize_ - 1].push_back(ctx_->focus.item);
    VM_NEXT();
  }

  VM_CASE(kAccumNew) : {
    if (asize_ == accums_.size()) accums_.emplace_back();
    accums_[asize_].clear();
    ++asize_;
    VM_NEXT();
  }

  VM_CASE(kAccumAdd) : {
    Sequence& s = stack[--sp];
    Sequence& acc = accums_[asize_ - 1];
    acc.insert(acc.end(), std::make_move_iterator(s.begin()),
               std::make_move_iterator(s.end()));
    VM_NEXT();
  }

  VM_CASE(kAccumEnd) : {
    --asize_;
    stack[sp++] = std::move(accums_[asize_]);
    VM_NEXT();
  }

  VM_CASE(kCallBuiltin) : {
    size_t argc = size_t(ip->b);
    args_.clear();
    for (size_t i = 0; i < argc; ++i) {
      args_.push_back(std::move(stack[sp - argc + i]));
    }
    sp -= argc;
    auto r = CallBuiltin(static_cast<Builtin>(ip->a), args_, ctx_,
                         ctx_->focus);
    if (!r.ok()) return r.status();
    stack[sp++] = std::move(r).value();
    VM_NEXT();
  }

  VM_CASE(kNavStep) : {
    // One axis walk over the whole origin sequence: the compiled twin of
    // the lazy PathIt + StepIt pair for a bare-step rhs. Governor parity:
    // one cooperative poll per origin item (plus the trailing exhaustion
    // poll), and byte charges only at blocking (materialization) levels —
    // streaming-elided levels never buffer in the lazy engine and charge
    // nothing, so budget trips stay deterministic across backends.
    const Program::PathPlan& plan = p_.paths[size_t(ip->a)];
    const bool blocking = plan.path != nullptr &&
                          (plan.path->needs_sort || plan.path->needs_dedup);
    Sequence& in = stack[sp - 1];
    Sequence out;
    for (const Item& origin : in) {
      if (gov_ != nullptr) XQP_RETURN_NOT_OK(gov_->Poll());
      XQP_RETURN_NOT_OK(CheckAxisOrigin(origin));
      size_t before = out.size();
      CollectAxis(origin.AsNode(), plan.step->axis, plan.step->test, &out,
                  ctx_);
      if (blocking && gov_ != nullptr) {
        XQP_RETURN_NOT_OK(
            gov_->ChargeBytes((out.size() - before) * sizeof(Item)));
      }
    }
    if (gov_ != nullptr) XQP_RETURN_NOT_OK(gov_->Poll());
    if (plan.path != nullptr) {
      XQP_RETURN_NOT_OK(FinishPathResult(*plan.path, &out));
    }
    stack[sp - 1] = std::move(out);
    VM_NEXT();
  }

  VM_CASE(kPathEnd) : {
    // The concatenated rhs results, with the lazy PathIt's byte charge
    // for a blocking level.
    const PathExpr& path = *p_.paths[size_t(ip->a)].path;
    Sequence& out = stack[sp - 1];
    if (gov_ != nullptr && (path.needs_sort || path.needs_dedup)) {
      XQP_RETURN_NOT_OK(gov_->ChargeBytes(out.size() * sizeof(Item)));
    }
    XQP_RETURN_NOT_OK(FinishPathResult(path, &out));
    VM_NEXT();
  }

  VM_CASE(kAccessPath) : {
    // Offer the marked chain to the access-path selector (synopsis /
    // value-index / structural-join strategies). An answer skips the
    // navigation code entirely — like the lazy IndexPathIt, the lhs
    // (including doc()) is never evaluated on the indexed fast path. A
    // decline falls through to the navigation instructions.
    const Program::PathPlan& plan = p_.paths[size_t(ip->a)];
    auto r = TryExecuteAccessPath(plan.path, ctx_);
    if (!r.ok()) return r.status();
    if (r.value().has_value()) {
      stack[sp++] = std::move(*r.value());
      VM_GOTO(ip->b);
    }
    VM_NEXT();
  }

  VM_CASE(kValueJoin) : {
    // The shared executor answers a planned for clause from one index per
    // execution; the domain and key run on the interpreter against
    // ctx->slots (the compiler mirrors the slots they read). Declines fall
    // through to the nested loop's domain code.
    const Program::JoinPlan& jp = p_.joins[size_t(ip->a)];
    IterState& it = iters[size_t(jp.iter)];
    if (ip->flag == 0) {
      auto eval = [this](const Expr* x) { return EvalExpr(x, ctx_); };
      switch (value_join::Prepare(jp.spec, ctx_, eval)) {
        case value_join::IndexState::kDeclined:
          VM_GOTO(jp.nested_pc);
        case value_join::IndexState::kEmpty:
          it.domain.clear();
          it.pos = 0;
          it.resume = -1;
          VM_GOTO(jp.loop_pc);
        case value_join::IndexState::kReady:
          break;
      }
      VM_NEXT();
    }
    bool answered = false;
    {
      // Scoped, as in kArith.
      std::optional<Sequence> matches =
          value_join::Probe(jp.spec, ctx_, stack[--sp]);
      answered = matches.has_value();
      if (answered) it.domain = std::move(*matches);
    }
    if (!answered) VM_NEXT();
    it.pos = 0;
    it.resume = jp.skip_pc;
    VM_GOTO(jp.loop_pc);
  }

  VM_CASE(kPushRoot) : {
    {  // Scoped, as in kApply.
      auto item = FocusItem(ctx_->focus);
      if (!item.ok()) return item.status();
      auto root = SlashRoot(*item.value());
      if (!root.ok()) return root.status();
      Sequence& s = stack[sp++];
      s.clear();
      s.push_back(std::move(root).value());
    }
    VM_NEXT();
  }

  VM_CASE(kSortOpen) : {
    if (ssize_ == sorts_.size()) sorts_.emplace_back();
    SortState& st = sorts_[ssize_++];
    st.tuples.clear();
    st.keys.assign(p_.sorts[size_t(ip->a)].specs.size(), flwor::OrderKey{});
    VM_NEXT();
  }

  VM_CASE(kSortKey) : {
    {
      // Scoped, as in kArith: a moved-from string can keep the buffer it
      // replaced, so `key` may still own heap memory.
      auto key = flwor::MakeOrderKey(stack[--sp]);
      if (!key.ok()) return key.status();
      sorts_[ssize_ - 1].keys[size_t(ip->a)] = std::move(key).value();
    }
    VM_NEXT();
  }

  VM_CASE(kSortAdd) : {
    // One buffered tuple per hit: keep huge tuple streams cancelable. The
    // buffer itself is uncharged, matching the interpreter's tuple vector.
    if (gov_ != nullptr) XQP_RETURN_NOT_OK(gov_->Poll());
    SortState& st = sorts_[ssize_ - 1];
    flwor::OrderedTuple t;
    t.keys = st.keys;
    t.result = std::move(stack[--sp]);
    st.tuples.push_back(std::move(t));
    VM_NEXT();
  }

  VM_CASE(kSortTuples) : {
    SortState& st = sorts_[ssize_ - 1];
    XQP_RETURN_NOT_OK(
        flwor::SortTuples(&st.tuples, p_.sorts[size_t(ip->a)].specs));
    Sequence out;
    for (flwor::OrderedTuple& t : st.tuples) {
      out.insert(out.end(), std::make_move_iterator(t.result.begin()),
                 std::make_move_iterator(t.result.end()));
    }
    --ssize_;
    stack[sp++] = std::move(out);
    VM_NEXT();
  }

  VM_CASE(kPop) : {
    --sp;
    VM_NEXT();
  }

  VM_CASE(kHalt) : {
    retired_ = retired + 1;
    return std::move(stack[--sp]);
  }

  VM_END()
}

#undef VM_CASE
#undef VM_DISPATCH
#undef VM_BEGIN
#undef VM_END
#undef VM_NEXT
#undef VM_GOTO

}  // namespace

Result<Sequence> RunProgram(const Program& program, DynamicContext* ctx) {
  Vm vm(program, ctx);
  Result<Sequence> out = vm.Run();
  if (metrics::Enabled()) {
    static metrics::Counter* instructions =
        metrics::MetricsRegistry::Global().counter("vm.instructions");
    if (vm.retired() != 0) instructions->Add(vm.retired());
  }
  return out;
}

}  // namespace vm
}  // namespace xqp
